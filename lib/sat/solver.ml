(* A CDCL SAT solver: two-watched-literal propagation with blockers,
   first-UIP conflict analysis, VSIDS decision heuristic with an indexed
   binary heap, phase saving, Luby restarts and activity-based
   learned-clause reduction.

   This is the "combinational verification technique based on the
   introduction of extra variables representing intermediate signals" that
   the paper names as future work; the scorr engine can use it instead of
   BDDs for the refinement checks.

   Invariant relied on by the parallel sweep scheduler: ALL mutable
   state is confined to the record [t] below — no module-level
   references, caches or scratch buffers — so independent instances can
   run concurrently in separate domains without synchronization.  Keep
   it that way: any new scratch state belongs in [t].  (The sentinel
   [no_clause] is shared but never written.) *)

type clause = {
  mutable lits : int array;
  learned : bool;
  mutable act : float;
  mutable lbd : int; (* literal block distance at learn time; 0 for problem clauses *)
  mutable deleted : bool;
      (* detached lazily: its watchers are dropped when their vector is
         next visited by [propagate] *)
}

(* Stands for "no clause" wherever a clause is expected: a decision's or
   level-0 fact's reason, no conflict, and the unused slots of a watcher
   vector.  Never written. *)
let no_clause = { lits = [||]; learned = false; act = 0.0; lbd = 0; deleted = true }

(* The watchers of one literal: clause [cls.(i)] watches the literal's
   negation, and [blk.(i)] is one of its other literals (the blocker) —
   while the blocker is true the clause is satisfied and is not opened. *)
type watchers = { mutable cls : clause array; mutable blk : int array; mutable n : int }

type result = Sat | Unsat

type proof_step = Step_add of int list | Step_delete of int list
(* DRAT-style trace events over packed literals: learned-clause additions
   (including the final clause an assumption-refuted solve implies) and
   clause deletions (learned-clause reduction, activation release). *)

(* lbool encoding: 0 = false, 1 = true, -1 = unknown *)
let l_undef = -1

type t = {
  mutable nvars : int;
  mutable guarded : clause list array;
      (* per activation variable: the problem clauses it guards *)
  mutable learnts : clause array; (* [0 .. n_learnts - 1] live, in learning order *)
  mutable n_learnts : int;
  mutable watches : watchers array; (* indexed by literal *)
  mutable assign : int array; (* per var: lbool *)
  mutable level : int array;
  mutable reason : clause array; (* [no_clause] for decisions and level-0 facts *)
  mutable polarity : bool array; (* saved phase *)
  mutable activity : float array;
  mutable trail : int array; (* literals in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array; (* trail size at each decision level *)
  mutable n_levels : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable seen : bool array; (* scratch for analyze *)
  (* VSIDS heap: heap of vars ordered by activity, with position index *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array; (* -1 when not in heap *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable n_clauses : int; (* stored problem clauses *)
  mutable failed : int list;
      (* after an assumption-refuted solve: the failed-assumption core, a
         subset of the assumptions whose conjunction the clauses refute;
         [] after a globally unsat or Sat answer *)
  mutable proof : (proof_step -> unit) option;
  mutable on_input : (int list -> unit) option;
      (* observes every problem clause exactly as given to [add_clause]
         (activation guard included, before normalization) — the proof
         checker reconstructs the raw CNF through this *)
}

let empty_watchers () = { cls = [||]; blk = [||]; n = 0 }

let create () =
  {
    nvars = 0;
    guarded = Array.make 1 [];
    learnts = Array.make 16 no_clause;
    n_learnts = 0;
    watches = Array.make 2 (empty_watchers ());
    assign = Array.make 1 l_undef;
    level = Array.make 1 0;
    reason = Array.make 1 no_clause;
    polarity = Array.make 1 false;
    activity = Array.make 1 0.0;
    trail = Array.make 1 0;
    trail_size = 0;
    trail_lim = Array.make 16 0;
    n_levels = 0;
    qhead = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    seen = Array.make 1 false;
    heap = Array.make 1 0;
    heap_size = 0;
    heap_pos = Array.make 1 (-1);
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    n_clauses = 0;
    failed = [];
    proof = None;
    on_input = None;
  }

let set_proof_logger s f = s.proof <- f
let set_input_logger s f = s.on_input <- f

let log_proof s step = match s.proof with Some f -> f step | None -> ()

let grow_array a n dummy =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) dummy in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* --- VSIDS heap -------------------------------------------------------- *)

let heap_less s v w = s.activity.(v) > s.activity.(w)

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(p) then begin
      let tmp = s.heap.(i) in
      s.heap.(i) <- s.heap.(p);
      s.heap.(p) <- tmp;
      s.heap_pos.(s.heap.(i)) <- i;
      s.heap_pos.(s.heap.(p)) <- p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    let tmp = s.heap.(i) in
    s.heap.(i) <- s.heap.(!best);
    s.heap.(!best) <- tmp;
    s.heap_pos.(s.heap.(i)) <- i;
    s.heap_pos.(s.heap.(!best)) <- !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap <- grow_array s.heap (s.heap_size + 1) 0;
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap.(0) <- s.heap.(s.heap_size);
  s.heap_pos.(s.heap.(0)) <- 0;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then heap_down s 0;
  v

(* --- variables --------------------------------------------------------- *)

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.watches <- grow_array s.watches (2 * s.nvars) (empty_watchers ());
  s.watches.(Lit.pos v) <- empty_watchers ();
  s.watches.(Lit.neg v) <- empty_watchers ();
  s.guarded <- grow_array s.guarded s.nvars [];
  s.assign <- grow_array s.assign s.nvars l_undef;
  s.level <- grow_array s.level s.nvars 0;
  s.reason <- grow_array s.reason s.nvars no_clause;
  s.polarity <- grow_array s.polarity s.nvars false;
  s.activity <- grow_array s.activity s.nvars 0.0;
  s.trail <- grow_array s.trail s.nvars 0;
  s.seen <- grow_array s.seen s.nvars false;
  s.heap_pos <- grow_array s.heap_pos s.nvars (-1);
  s.assign.(v) <- l_undef;
  s.reason.(v) <- no_clause;
  s.polarity.(v) <- false;
  s.activity.(v) <- 0.0;
  s.heap_pos.(v) <- -1;
  heap_insert s v;
  v

let ensure_vars s n =
  while s.nvars < n do
    ignore (new_var s)
  done

let value_var s v = s.assign.(v)

let value_lit s l =
  let a = s.assign.(Lit.var l) in
  if a = l_undef then l_undef else a lxor (l land 1)

(* --- activities -------------------------------------------------------- *)

let var_decay = 1.0 /. 0.95
let cla_decay = 1.0 /. 0.999

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let bump_clause s c =
  c.act <- c.act +. s.cla_inc;
  if c.act > 1e20 then begin
    for i = 0 to s.n_learnts - 1 do
      let c = s.learnts.(i) in
      c.act <- c.act *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(* --- assignment / trail ------------------------------------------------ *)

let decision_level s = s.n_levels

let enqueue s l reason =
  let v = Lit.var l in
  s.assign.(v) <- (if Lit.sign l then 1 else 0);
  s.polarity.(v) <- Lit.sign l;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let new_decision_level s =
  s.trail_lim <- grow_array s.trail_lim (s.n_levels + 1) 0;
  s.trail_lim.(s.n_levels) <- s.trail_size;
  s.n_levels <- s.n_levels + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    for i = s.trail_size - 1 downto s.trail_lim.(lvl) do
      let v = Lit.var s.trail.(i) in
      s.assign.(v) <- l_undef;
      s.reason.(v) <- no_clause;
      heap_insert s v
    done;
    s.trail_size <- s.trail_lim.(lvl);
    s.qhead <- s.trail_size;
    s.n_levels <- lvl
  end

(* --- watched literals --------------------------------------------------- *)

let watch s l c blocker =
  let w = s.watches.(l) in
  if w.n = Array.length w.cls then begin
    let cap = max 4 (2 * w.n) in
    let cls = Array.make cap no_clause and blk = Array.make cap 0 in
    Array.blit w.cls 0 cls 0 w.n;
    Array.blit w.blk 0 blk 0 w.n;
    w.cls <- cls;
    w.blk <- blk
  end;
  w.cls.(w.n) <- c;
  w.blk.(w.n) <- blocker;
  w.n <- w.n + 1

let attach s c =
  watch s (Lit.negate c.lits.(0)) c c.lits.(1);
  watch s (Lit.negate c.lits.(1)) c c.lits.(0)

(* Propagate all enqueued facts; returns the conflicting clause, or
   [no_clause].  The watchers of a true literal [p] are the clauses in
   which [~p] is watched (indexed by the literal whose truth triggers a
   visit).  Each vector is compacted in place: [i] reads, [j] writes back
   the watchers that stay, and deleted clauses' watchers are dropped. *)
let propagate s =
  let confl = ref no_clause in
  while !confl == no_clause && s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let false_lit = Lit.negate p in
    let w = s.watches.(p) in
    let cls = w.cls and blk = w.blk and n = w.n in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = cls.(!i) and b = blk.(!i) in
      incr i;
      if c.deleted then ()
      else if value_lit s b = 1 then begin
        cls.(!j) <- c;
        blk.(!j) <- b;
        incr j
      end
      else begin
        let lits = c.lits in
        if lits.(0) = false_lit then begin
          lits.(0) <- lits.(1);
          lits.(1) <- false_lit
        end;
        let first = lits.(0) in
        if first <> b && value_lit s first = 1 then begin
          (* satisfied by the other watch: keep it, as the new blocker *)
          cls.(!j) <- c;
          blk.(!j) <- first;
          incr j
        end
        else begin
          (* look for a new literal to watch *)
          let len = Array.length lits in
          let k = ref 2 in
          while !k < len && value_lit s lits.(!k) = 0 do
            incr k
          done;
          if !k < len then begin
            lits.(1) <- lits.(!k);
            lits.(!k) <- false_lit;
            watch s (Lit.negate lits.(1)) c first
          end
          else begin
            (* unit or conflicting: the watch stays *)
            cls.(!j) <- c;
            blk.(!j) <- first;
            incr j;
            if value_lit s first = 0 then begin
              (* conflict: keep the unvisited watchers and stop *)
              confl := c;
              s.qhead <- s.trail_size;
              while !i < n do
                cls.(!j) <- cls.(!i);
                blk.(!j) <- blk.(!i);
                incr i;
                incr j
              done
            end
            else enqueue s first c
          end
        end
      end
    done;
    (* clear the vacated slots so dropped clauses can be collected *)
    if !j < n then Array.fill cls !j (n - !j) no_clause;
    w.n <- !j
  done;
  !confl

(* --- clause addition ---------------------------------------------------- *)

exception Trivially_sat

(* Sort, drop duplicates and level-0 false literals; raise [Trivially_sat]
   on a tautology or a level-0 true literal. *)
let normalize s lits =
  let lits = List.sort_uniq Int.compare lits in
  List.filter
    (fun l ->
      if List.mem (Lit.negate l) lits then raise Trivially_sat;
      match value_lit s l with
      | 1 -> raise Trivially_sat
      | 0 -> false
      | _ -> true)
    lits

let push_learnt s c =
  s.learnts <- grow_array s.learnts (s.n_learnts + 1) no_clause;
  s.learnts.(s.n_learnts) <- c;
  s.n_learnts <- s.n_learnts + 1

(* [act >= 0] guards the clause with activation variable [act]: the stored
   clause is [~act \/ lits] and {!release}[ act] retires it.  Activation
   variables must only ever be assumed positively (never asserted by a
   clause), so no level-0 fact can depend on a guarded clause. *)
let add_clause ?(act = -1) s lits =
  if s.ok then begin
    let lits = if act >= 0 then Lit.neg act :: lits else lits in
    (match s.on_input with Some f -> f lits | None -> ());
    if decision_level s > 0 then cancel_until s 0;
    match normalize s lits with
    | exception Trivially_sat -> ()
    | [] -> s.ok <- false
    | [ l ] ->
      enqueue s l no_clause;
      if propagate s != no_clause then s.ok <- false
    | lits ->
      let c =
        { lits = Array.of_list lits; learned = false; act = 0.0; lbd = 0; deleted = false }
      in
      if act >= 0 then s.guarded.(act) <- c :: s.guarded.(act);
      s.n_clauses <- s.n_clauses + 1;
      attach s c
  end

(* --- conflict analysis (first UIP) -------------------------------------- *)

let analyze s confl =
  let learnt = ref [] in
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail_size - 1) in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if c.learned then bump_clause s c;
    let start = if !p = -1 then 0 else 1 in
    for i = start to Array.length c.lits - 1 do
      let q = c.lits.(i) in
      let v = Lit.var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        bump_var s v;
        if s.level.(v) >= decision_level s then incr path_c
        else learnt := q :: !learnt
      end
    done;
    (* next literal to expand: most recent seen literal on the trail *)
    while not s.seen.(Lit.var s.trail.(!index)) do
      decr index
    done;
    p := s.trail.(!index);
    decr index;
    let v = Lit.var !p in
    s.seen.(v) <- false;
    confl := s.reason.(v);
    decr path_c;
    if !path_c <= 0 then continue := false
  done;
  let learnt = Lit.negate !p :: !learnt in
  (* clear seen flags *)
  List.iter (fun q -> s.seen.(Lit.var q) <- false) learnt;
  (* backtrack level: highest level among the non-asserting literals *)
  let bt_level =
    List.fold_left
      (fun acc q -> if Lit.negate q = !p then acc else max acc s.level.(Lit.var q))
      0 learnt
  in
  (Array.of_list learnt, bt_level)

(* Distinct decision levels among the literals — measured before
   backtracking, while the levels that produced the clause are current. *)
let compute_lbd s lits =
  let levels = ref [] in
  Array.iter
    (fun q ->
      let lv = s.level.(Lit.var q) in
      if lv > 0 && not (List.mem lv !levels) then levels := lv :: !levels)
    lits;
  List.length !levels

let record_learnt s lits bt_level =
  let lbd = compute_lbd s lits in
  log_proof s (Step_add (Array.to_list lits));
  cancel_until s bt_level;
  if Array.length lits = 1 then begin
    enqueue s lits.(0) no_clause
  end
  else begin
    (* ensure lits.(1) is at the backtrack level so watches stay valid *)
    let hi = ref 1 in
    for i = 2 to Array.length lits - 1 do
      if s.level.(Lit.var lits.(i)) > s.level.(Lit.var lits.(!hi)) then hi := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!hi);
    lits.(!hi) <- tmp;
    let c = { lits; learned = true; act = 0.0; lbd; deleted = false } in
    bump_clause s c;
    push_learnt s c;
    attach s c;
    enqueue s lits.(0) c
  end

(* --- clause deletion ------------------------------------------------------ *)

(* Detach [c] lazily and log its deletion.  A dropped clause may linger as
   the reason of a level-0 fact; level-0 reasons are never dereferenced,
   but the link is cleared anyway. *)
let delete s c =
  c.deleted <- true;
  log_proof s (Step_delete (Array.to_list c.lits));
  if Array.length c.lits > 0 then begin
    let v = Lit.var c.lits.(0) in
    if s.reason.(v) == c then s.reason.(v) <- no_clause
  end

(* Keep the learnts that satisfy [keep], in order; delete the others. *)
let filter_learnts s keep =
  let j = ref 0 in
  for i = 0 to s.n_learnts - 1 do
    let c = s.learnts.(i) in
    if keep c then begin
      s.learnts.(!j) <- c;
      incr j
    end
    else delete s c
  done;
  Array.fill s.learnts !j (s.n_learnts - !j) no_clause;
  s.n_learnts <- !j

let locked s c =
  let v = Lit.var c.lits.(0) in
  s.reason.(v) == c && s.assign.(v) <> l_undef

(* Drop the less active half of the learnts, sparing binary clauses and
   the reasons of current assignments: they are marked here, and deleted
   (and logged) by the filter. *)
let reduce_db s =
  let sorted = Array.sub s.learnts 0 s.n_learnts in
  Array.stable_sort (fun a b -> Float.compare a.act b.act) sorted;
  let to_drop = s.n_learnts / 2 in
  let dropped = ref 0 in
  Array.iter
    (fun c ->
      if !dropped < to_drop && (not (locked s c)) && Array.length c.lits > 2 then begin
        c.deleted <- true;
        incr dropped
      end)
    sorted;
  filter_learnts s (fun c -> not c.deleted)

(* --- activation release -------------------------------------------------- *)

(* Retire activation variable [g]: the clauses it guards and every learnt
   mentioning [~g] are permanently satisfied once [~g] holds, so they are
   deleted (activation-aware garbage collection) before the retiring unit
   is asserted.  Then [g]'s two watcher vectors are never visited again
   ([~g] stays true at level 0), so both are freed outright. *)
let release s g =
  if s.ok then begin
    cancel_until s 0;
    let ng = Lit.neg g in
    List.iter
      (fun c ->
        delete s c;
        s.n_clauses <- s.n_clauses - 1)
      s.guarded.(g);
    s.guarded.(g) <- [];
    filter_learnts s (fun c -> not (Array.mem ng c.lits));
    add_clause s [ ng ];
    s.watches.(Lit.pos g) <- empty_watchers ();
    s.watches.(ng) <- empty_watchers ()
  end

(* --- search -------------------------------------------------------------- *)

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

let pick_branch_var s =
  let rec go () =
    if s.heap_size = 0 then -1
    else
      let v = heap_pop s in
      if s.assign.(v) = l_undef then v else go ()
  in
  go ()

exception Found of result

(* Failed-assumption core: the assumption [a] is falsified by unit
   propagation from the clauses and the assumptions installed so far.
   Walk the implication graph backwards from [a]; every decision reached
   is an assumption (assumptions are installed before any branch
   decision), and together with [a] they form a subset of the assumptions
   whose conjunction the clauses already refute. *)
let analyze_final s a =
  s.failed <- [ a ];
  if decision_level s > 0 then begin
    s.seen.(Lit.var a) <- true;
    for i = s.trail_size - 1 downto s.trail_lim.(0) do
      let v = Lit.var s.trail.(i) in
      if s.seen.(v) then begin
        let c = s.reason.(v) in
        if c == no_clause then s.failed <- s.trail.(i) :: s.failed
        else
          for j = 1 to Array.length c.lits - 1 do
            let u = Lit.var c.lits.(j) in
            if s.level.(u) > 0 then s.seen.(u) <- true
          done;
        s.seen.(v) <- false
      end
    done;
    s.seen.(Lit.var a) <- false
  end

(* Search until a restart is due ([budget] conflicts), Sat, or Unsat.
   [assumptions] are re-installed as the first decisions after every
   restart or deep backjump: level [i + 1] holds [assumptions.(i)]. *)
let search s assumptions budget =
  let conflicts_here = ref 0 in
  try
    while true do
      let confl = propagate s in
      if confl != no_clause then begin
        s.conflicts <- s.conflicts + 1;
        incr conflicts_here;
        if decision_level s = 0 then begin
          (* a contradiction at level 0 is independent of assumptions and
             decisions: the instance itself is unsatisfiable, permanently *)
          s.ok <- false;
          s.failed <- [];
          raise (Found Unsat)
        end;
        let learnt, bt = analyze s confl in
        record_learnt s learnt bt;
        s.var_inc <- s.var_inc *. var_decay;
        s.cla_inc <- s.cla_inc *. cla_decay
      end
      else begin
        if !conflicts_here >= budget then begin
          cancel_until s 0;
          raise Exit
        end;
        if s.n_learnts > 4000 + (2 * s.n_clauses) then reduce_db s;
        (* install pending assumptions as decisions *)
        if decision_level s < Array.length assumptions then begin
          let a = assumptions.(decision_level s) in
          match value_lit s a with
          | 0 ->
            (* assumption contradicted: extract the failed core *)
            analyze_final s a;
            raise (Found Unsat)
          | 1 -> new_decision_level s (* dummy level, already true *)
          | _ ->
            new_decision_level s;
            enqueue s a no_clause
        end
        else begin
          let v = pick_branch_var s in
          if v < 0 then raise (Found Sat)
          else begin
            s.decisions <- s.decisions + 1;
            new_decision_level s;
            enqueue s (Lit.make v s.polarity.(v)) no_clause
          end
        end
      end
    done;
    assert false
  with
  | Exit -> None
  | Found r -> Some r

let solve ?(assumptions = []) s =
  s.failed <- [];
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    if propagate s != no_clause then begin
      s.ok <- false;
      log_proof s (Step_add []);
      Unsat
    end
    else begin
      let assumptions = Array.of_list assumptions in
      let restart = ref 0 in
      let rec loop () =
        let budget = int_of_float (100.0 *. luby 2.0 !restart) in
        if !restart > 0 then s.restarts <- s.restarts + 1;
        incr restart;
        match search s assumptions budget with
        | Some r -> r
        | None -> loop ()
      in
      let r = loop () in
      (* keep the model readable after Sat; always reusable afterwards *)
      if r = Unsat then begin
        cancel_until s 0;
        (* the refutation implies the negation of the failed core (the
           empty clause when the instance is unsatisfiable outright) *)
        log_proof s (Step_add (List.map Lit.negate s.failed))
      end;
      r
    end
  end

let solve_under_assumptions s assumptions = solve ~assumptions s
let failed_assumptions s = s.failed

let model_value s v =
  match s.assign.(v) with
  | 1 -> true
  | 0 -> false
  | _ -> false (* unconstrained variable: any value works *)

let model s = Array.init s.nvars (fun v -> model_value s v)

let after_solve_cleanup s = cancel_until s 0

(* --- learned-clause exchange --------------------------------------------- *)

(* Learnt clauses confined to variables below [limit_var] were derived from
   clauses over those variables alone: selector and activation variables
   occur only negatively in the problem clauses, so resolution can never
   eliminate them — any derivation that touches a guarded clause leaves its
   guard literal in the resolvent.  Such clauses are consequences of the
   shared base encoding and are sound to import into any solver holding an
   identical copy of it.  Listed newest first. *)
let export_learnts s ~limit_var ~max_size ~max_lbd =
  let out = ref [] in
  for i = 0 to s.n_learnts - 1 do
    let c = s.learnts.(i) in
    if
      Array.length c.lits <= max_size
      && c.lbd <= max_lbd
      && Array.for_all (fun l -> Lit.var l < limit_var) c.lits
    then out := Array.to_list c.lits :: !out
  done;
  !out

(* Install a clause known to be entailed (an import from a sibling solver):
   stored as a learnt so reduction can drop it again. *)
let import_clause s lits =
  if s.ok then begin
    if decision_level s > 0 then cancel_until s 0;
    List.iter (fun l -> if Lit.var l >= s.nvars then ensure_vars s (Lit.var l + 1)) lits;
    match normalize s lits with
    | exception Trivially_sat -> ()
    | [] -> s.ok <- false
    | [ l ] ->
      log_proof s (Step_add [ l ]);
      enqueue s l no_clause;
      if propagate s != no_clause then s.ok <- false
    | lits ->
      log_proof s (Step_add lits);
      let c =
        let lbd = List.length lits in
        { lits = Array.of_list lits; learned = true; act = 0.0; lbd; deleted = false }
      in
      push_learnt s c;
      attach s c
  end

let num_vars s = s.nvars
let num_clauses s = s.n_clauses
let num_learnts s = s.n_learnts
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations
let num_restarts s = s.restarts
let is_consistent s = s.ok
