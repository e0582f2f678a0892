(* Ternary-simulation seeding of the signal-correspondence partition.

   X-valued simulation of the product machine from its defined initial
   state (all inputs X) yields, per node, a signature of definite values
   over the first frames of the walk — packed as (mask, value) int pairs
   by [Lint.Aig_ternary.signatures].  Two signals whose signatures are
   definitely unequal on some frame take different values at that frame of
   EVERY real run, so they cannot be sequentially equivalent: splitting
   them apart is exact, costs no BDD or SAT effort, and the greatest fixed
   point then needs fewer refinement iterations.  This complements the
   random-simulation seeding of Section 4: ternary simulation follows the
   unique input-independent part of the state sequence (reset sequences,
   stuck and self-feeding registers), which random patterns only sample.

   Soundness placement: the driver applies this only after the conclusive
   initial-state output check, so an (impossible) over-split could only
   degrade Equivalent to Unknown, never manufacture a wrong verdict. *)

let refine ?max_steps product partition =
  let aig = product.Product.aig in
  let sigs = Lint.Aig_ternary.signatures ?max_steps aig in
  let norm id =
    let mask, value = sigs.(id) in
    (* complementing a ternary value flips the defined bits only *)
    if Partition.polarity partition id then (mask, value lxor mask) else (mask, value)
  in
  (* Ternary simulation holds every input at X, so a primary input looks
     compatible with everything.  But an input takes both values on every
     frame, so a signal can only correspond to it when the input lies in
     the signal's combinational cone. *)
  let cone_pis = Hashtbl.create 64 in
  let rec pis_of id =
    match Hashtbl.find_opt cone_pis id with
    | Some ps -> ps
    | None ->
      let ps =
        match Aig.node aig id with
        | Aig.Pi _ -> [ id ]
        | Aig.Const | Aig.Latch _ -> []
        | Aig.And (a, b) ->
          List.sort_uniq compare (pis_of (Aig.node_of_lit a) @ pis_of (Aig.node_of_lit b))
      in
      Hashtbl.add cone_pis id ps;
      ps
  in
  let is_pi id = match Aig.node aig id with Aig.Pi _ -> true | _ -> false in
  let compatible (a, ma, va) (b, mb, vb) =
    ma land mb land (va lxor vb) = 0
    && ((not (is_pi a)) || List.mem a (pis_of b))
    && ((not (is_pi b)) || List.mem b (pis_of a))
  in
  (* Split each class into the connected components of its compatibility
     graph: no member of one component is compatible with a member of
     another, so every pair this separates differs on every run, and no
     pair of the greatest fixed point is cut.  Compatibility is not
     transitive, so grouping members by compatibility with a subgroup
     representative would not have that guarantee. *)
  let component = Hashtbl.create 64 in
  let split = ref 0 in
  List.iter
    (fun cls ->
      let mems =
        Array.of_list
          (List.map
             (fun id ->
               let m, v = norm id in
               (id, m, v))
             (Partition.members partition cls))
      in
      let root = Array.init (Array.length mems) Fun.id in
      let rec find i =
        if root.(i) = i then i
        else begin
          root.(i) <- root.(root.(i));
          find root.(i)
        end
      in
      Array.iteri
        (fun i a ->
          for j = 0 to i - 1 do
            if compatible a mems.(j) then root.(find i) <- find j
          done)
        mems;
      Array.iteri (fun i (id, _, _) -> Hashtbl.replace component id (find i)) mems;
      if
        Partition.refine_class partition cls ~equal:(fun a b ->
            Hashtbl.find component a = Hashtbl.find component b)
      then incr split)
    (Partition.multi_member_classes partition);
  !split

(* Latches of the product machine provably stuck at a constant on every
   reachable state (by latch index): the facts behind the [stuck-latch]
   lint diagnostic, exposed here for instrumentation. *)
let stuck_constants ?max_steps product =
  Lint.Aig_ternary.stuck_latches ?max_steps product.Product.aig
