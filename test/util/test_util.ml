(* Shared helpers for the test suites: random circuit generation and
   sequential-behaviour comparison. *)

let gate_fns =
  [| Netlist.And; Netlist.Or; Netlist.Nand; Netlist.Nor; Netlist.Xor;
     Netlist.Xnor; Netlist.Not; Netlist.Buf |]

(* A random well-formed sequential circuit.  Gates only reference earlier
   nets, so the combinational part is acyclic by construction; latch data
   inputs may reference any net, giving real sequential feedback. *)
let random_circuit ?(n_inputs = 4) ?(n_latches = 3) ?(n_gates = 20) ?(n_outputs = 2) seed =
  let rng = Random.State.make [| seed; 0xc1c |] in
  let c = Netlist.create (Printf.sprintf "rand%d" seed) in
  let nets = ref [] in
  for i = 0 to n_inputs - 1 do
    nets := Netlist.add_input ~name:(Printf.sprintf "in%d" i) c :: !nets
  done;
  let latch_nets =
    List.init n_latches (fun i ->
        let l =
          Netlist.add_latch ~name:(Printf.sprintf "q%d" i) c
            ~init:(Random.State.bool rng)
        in
        nets := l :: !nets;
        l)
  in
  let pick () =
    let pool = !nets in
    List.nth pool (Random.State.int rng (List.length pool))
  in
  for _ = 1 to n_gates do
    let fn = gate_fns.(Random.State.int rng (Array.length gate_fns)) in
    let arity =
      match fn with
      | Netlist.Not | Netlist.Buf -> 1
      | Netlist.And | Netlist.Or | Netlist.Nand | Netlist.Nor | Netlist.Xor
      | Netlist.Xnor ->
        1 + Random.State.int rng 3
      | Netlist.Const0 | Netlist.Const1 -> 0
    in
    let fanins = List.init arity (fun _ -> pick ()) in
    nets := Netlist.add_gate c fn fanins :: !nets
  done;
  List.iter (fun l -> Netlist.set_latch_data c l ~data:(pick ())) latch_nets;
  for i = 0 to n_outputs - 1 do
    Netlist.add_output c (Printf.sprintf "out%d" i) (pick ())
  done;
  c

(* Compare two circuits' sequential behaviour on random stimuli.  Both must
   have the same number of inputs and identically named outputs.  Returns
   [None] when all frames agree, otherwise the index of the first
   disagreeing frame. *)
let seq_differ ?(seed = 42) ?(n_frames = 32) c1 c2 =
  let n_inputs = List.length (Netlist.inputs c1) in
  assert (n_inputs = List.length (Netlist.inputs c2));
  let stimuli = Netlist.Sim.random_stimuli ~seed ~n_inputs ~n_frames in
  let o1 = Netlist.Sim.run c1 stimuli and o2 = Netlist.Sim.run c2 stimuli in
  let rec scan i = function
    | [], [] -> None
    | f1 :: r1, f2 :: r2 ->
      let sorted = List.sort compare in
      if sorted f1 <> sorted f2 then Some i else scan (i + 1) (r1, r2)
    | _ -> Some i
  in
  scan 0 (o1, o2)

(* Same comparison at the AIG level. *)
let aig_seq_differ ?(seed = 42) ?(n_frames = 32) a1 a2 =
  let n_pis = Aig.num_pis a1 in
  assert (n_pis = Aig.num_pis a2);
  let frames = Aig.Sim.random_frames ~seed ~n_pis ~n_frames in
  let o1, _ = Aig.Sim.run a1 frames and o2, _ = Aig.Sim.run a2 frames in
  let rec scan i = function
    | [], [] -> None
    | f1 :: r1, f2 :: r2 ->
      let sorted = List.sort compare in
      if sorted f1 <> sorted f2 then Some i else scan (i + 1) (r1, r2)
    | _ -> Some i
  in
  scan 0 (o1, o2)

(* Exhaustive bounded sequential equivalence for tiny circuits: breadth
   first over the joint reachable states, comparing outputs on every input
   vector.  The ground truth oracle for checker tests. *)
let bounded_seq_equiv ?(max_states = 1 lsl 16) a1 a2 =
  let n_pis = Aig.num_pis a1 in
  assert (n_pis = Aig.num_pis a2);
  assert (n_pis <= 10);
  let pack words = Array.to_list words in
  let outputs_and_next a state pi_bits =
    let pi_words =
      Array.init (Aig.num_pis a) (fun i ->
          if pi_bits land (1 lsl i) <> 0 then -1L else 0L)
    in
    let values, next = Aig.Sim.step a ~pi_words ~latch_words:state in
    let outs =
      List.map (fun (name, l) -> (name, Int64.logand 1L (Aig.Sim.lit_word values l)))
        (Aig.pos a)
    in
    (List.sort compare outs, next)
  in
  let seen = Hashtbl.create 256 in
  let queue = Queue.create () in
  let s0 = (Aig.Sim.initial_latch_words a1, Aig.Sim.initial_latch_words a2) in
  Queue.add s0 queue;
  Hashtbl.replace seen (pack (fst s0), pack (snd s0)) ();
  let ok = ref true in
  while !ok && not (Queue.is_empty queue) do
    let s1, s2 = Queue.pop queue in
    for pi_bits = 0 to (1 lsl n_pis) - 1 do
      if !ok then begin
        let o1, n1 = outputs_and_next a1 s1 pi_bits in
        let o2, n2 = outputs_and_next a2 s2 pi_bits in
        if o1 <> o2 then ok := false
        else begin
          let key = (pack n1, pack n2) in
          if not (Hashtbl.mem seen key) then begin
            if Hashtbl.length seen >= max_states then
              failwith "bounded_seq_equiv: state budget exceeded";
            Hashtbl.replace seen key ();
            Queue.add (n1, n2) queue
          end
        end
      end
    done
  done;
  !ok

(* Explicit-state signal correspondence at induction depth 1: the
   exactness reference for both engines on tiny product machines.  Every
   candidate node of the product is valued by plain simulation at every
   (state, input) point, normalised by the product's reference polarity.
   T0 groups the nodes that agree on every input from the initial state
   (Eq. 2).  Each refinement then keeps two nodes together only if they
   agree at every successor point (delta(s, x_t), x_{t+1}) of every point
   (s, x_t) — over all product states, reachable or not — that satisfies
   the correspondence condition Q of the current partition (Eq. 3).
   Returns the greatest fixed point's multi-member classes, each sorted,
   in sorted order; [seed] must be the run's, since it fixes the
   polarities. *)
let signal_correspondence ~seed (product : Scorr.Product.t) =
  let aig = product.Scorr.Product.aig in
  let n_latches = Aig.num_latches aig and n_pis = Aig.num_pis aig in
  assert (n_latches + n_pis <= 12);
  let pol = Scorr.Product.reference_values ~seed product in
  let nodes = Array.of_list (Scorr.Product.candidate_nodes product) in
  let n = Array.length nodes in
  let n_inputs = 1 lsl n_pis in
  let point s x = (s lsl n_pis) lor x in
  let n_points = (1 lsl n_latches) * n_inputs in
  let bit v i = if v land (1 lsl i) <> 0 then 1L else 0L in
  let value = Array.make n_points [||] and next = Array.make n_points 0 in
  for s = 0 to (1 lsl n_latches) - 1 do
    for x = 0 to n_inputs - 1 do
      let words =
        Aig.Sim.eval_comb aig ~pi_words:(Array.init n_pis (bit x))
          ~latch_words:(Array.init n_latches (bit s))
      in
      let on l = Int64.logand (Aig.Sim.lit_word words l) 1L = 1L in
      value.(point s x) <- Array.map (fun id -> on (Aig.lit_of_node id) <> pol.(id)) nodes;
      for i = 0 to n_latches - 1 do
        if on (Aig.latch_next aig i) then next.(point s x) <- next.(point s x) lor (1 lsl i)
      done
    done
  done;
  let s0 =
    List.fold_left
      (fun acc i -> if Aig.latch_init aig i then acc lor (1 lsl i) else acc)
      0
      (List.init n_latches Fun.id)
  in
  (* split every class by [key]; class ids are dense from 0 *)
  let split cls key =
    let ids = Hashtbl.create 64 in
    Array.mapi
      (fun i c ->
        let k = (c, key i) in
        match Hashtbl.find_opt ids k with
        | Some j -> j
        | None ->
          let j = Hashtbl.length ids in
          Hashtbl.add ids k j;
          j)
      cls
  in
  let n_classes cls = 1 + Array.fold_left max (-1) cls in
  let t0 =
    split (Array.make n 0) (fun i -> List.init n_inputs (fun x -> value.(point s0 x).(i)))
  in
  let rec fixpoint cls =
    let rep = Array.make n (-1) in
    Array.iteri (fun i c -> if rep.(c) < 0 then rep.(c) <- i) cls;
    let satisfies_q p =
      let v = value.(p) in
      let ok = ref true in
      Array.iteri (fun i c -> if v.(i) <> v.(rep.(c)) then ok := false) cls;
      !ok
    in
    let q_points = List.filter satisfies_q (List.init n_points Fun.id) in
    let cls' =
      split cls (fun i ->
          List.concat_map
            (fun p -> List.init n_inputs (fun x' -> value.(point next.(p) x').(i)))
            q_points)
    in
    if n_classes cls' = n_classes cls then cls else fixpoint cls'
  in
  let cls = fixpoint t0 in
  let members = Array.make n [] in
  for i = n - 1 downto 0 do
    members.(cls.(i)) <- nodes.(i) :: members.(cls.(i))
  done;
  List.sort compare
    (List.filter_map
       (function [] | [ _ ] -> None | ms -> Some (List.sort compare ms))
       (Array.to_list members))
