(* Structural support cones of the product machine, closed through latch
   next-state functions: cone(v) is the set of nodes reachable from v by
   walking AND fanins and from each latch into its next-state cone, to a
   fixed point.  Stored as one bitset row per node.

   The cones drive the dirty-class scheduler: a class proven stable at
   partition version V only needs re-examination when a later split moved
   a node that its members structurally depend on (or that depends on
   them).  The check is a heuristic over-approximation direction-wise, so
   engines confirm a zero-split sweep with a strict pass before reporting
   the fixed point. *)

type t = {
  n : int;
  words : int; (* words per row *)
  table : int64 array; (* n rows of [words] int64s *)
  pis : int array; (* PI node ids, for the input-support projections *)
}

let set_bit t row id =
  let idx = (row * t.words) + (id lsr 6) in
  t.table.(idx) <- Int64.logor t.table.(idx) (Int64.shift_left 1L (id land 63))

let test_bit t row id =
  Int64.logand t.table.((row * t.words) + (id lsr 6)) (Int64.shift_left 1L (id land 63))
  <> 0L

(* row_dst |= row_src; returns whether row_dst changed *)
let union_into t dst src =
  if dst = src then false
  else begin
    let changed = ref false in
    let db = dst * t.words and sb = src * t.words in
    for w = 0 to t.words - 1 do
      let v = Int64.logor t.table.(db + w) t.table.(sb + w) in
      if v <> t.table.(db + w) then begin
        t.table.(db + w) <- v;
        changed := true
      end
    done;
    !changed
  end

let make aig =
  let n = Aig.num_nodes aig in
  let words = (n + 63) / 64 in
  let t =
    { n; words; table = Array.make (n * words) 0L; pis = Array.of_list (Aig.pis aig) }
  in
  for id = 0 to n - 1 do
    set_bit t id id
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for id = 0 to n - 1 do
      match Aig.node aig id with
      | Aig.Const | Aig.Pi _ -> ()
      | Aig.And (a, b) ->
        if union_into t id (Aig.node_of_lit a) then changed := true;
        if union_into t id (Aig.node_of_lit b) then changed := true
      | Aig.Latch i ->
        if union_into t id (Aig.node_of_lit (Aig.latch_next aig i)) then changed := true
    done
  done;
  t

let in_cone t ~node ~of_ = node < t.n && of_ < t.n && test_bit t of_ node

(* Cone cardinality: the number of nodes a signal structurally depends on
   (closed through latches), i.e. the population count of its row. *)
let cone_size t row =
  let popcount w =
    let open Int64 in
    let w = sub w (logand (shift_right_logical w 1) 0x5555555555555555L) in
    let w =
      add (logand w 0x3333333333333333L) (logand (shift_right_logical w 2) 0x3333333333333333L)
    in
    let w = logand (add w (shift_right_logical w 4)) 0x0f0f0f0f0f0f0f0fL in
    to_int (shift_right_logical (mul w 0x0101010101010101L) 56)
  in
  let acc = ref 0 in
  let base = row * t.words in
  for w = 0 to t.words - 1 do
    acc := !acc + popcount t.table.(base + w)
  done;
  !acc

let max_cone_size t =
  let m = ref 0 in
  for row = 0 to t.n - 1 do
    m := max !m (cone_size t row)
  done;
  !m

(* --- static candidate prefilter ------------------------------------------------ *)

(* Projection of a cone onto the primary inputs.  Structural PI support
   over-approximates semantic support, so two signals with disjoint
   non-empty PI supports can only be equivalent if both are semantically
   input-free; splitting such a pair from a candidate class costs zero
   solver calls and preserves verdict soundness (splits never fabricate an
   equivalence).  Signals with EMPTY structural support — autonomous
   counters, stuck constants — are never split from anything: they are
   exactly the candidates whose equivalences live beyond the inputs'
   reach. *)
let pi_nonempty t row = Array.exists (fun pi -> test_bit t row pi) t.pis

let pi_compatible t a b =
  a >= t.n || b >= t.n
  || (not (pi_nonempty t a))
  || (not (pi_nonempty t b))
  || Array.exists (fun pi -> test_bit t a pi && test_bit t b pi) t.pis

(* Split one class by PI-support compatibility with each subgroup's
   representative; [true] when the class split. *)
let prefilter_class t partition cls =
  Partition.refine_class partition cls ~equal:(fun rep id -> pi_compatible t rep id)

(* One prefilter pass over every multi-member class, returning how many
   split (0 without touching [t] when disabled).  Both engines run it
   before each pass, so pairs that earlier splits expose are caught;
   [Partition.refine_class] bumps the version and records moves, so the
   suspect/strict protocol covers these splits like any other. *)
let static_prefilter ~enabled t partition =
  if not enabled then 0
  else begin
    let t = Lazy.force t in
    List.fold_left
      (fun acc cls -> if prefilter_class t partition cls then acc + 1 else acc)
      0
      (Partition.multi_member_classes partition)
  end

(* Must class [cls], proven stable at partition version [proved_at], be
   re-examined?  Yes when its own membership changed since, or when any
   node moved since then is structurally coupled to a member (either
   direction of the cone relation). *)
let suspect t partition cls ~proved_at =
  Partition.touched_version partition cls > proved_at
  ||
  match Partition.moved_since partition proved_at with
  | None -> true (* journal segment too long to scan: assume dirty *)
  | Some moved ->
    let mems = Partition.members partition cls in
    List.exists
      (fun d ->
        List.exists
          (fun m -> in_cone t ~node:d ~of_:m || in_cone t ~node:m ~of_:d)
          mems)
      moved
