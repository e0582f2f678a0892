(** Symbolic state-space traversal — the conventional sequential
    equivalence checking algorithm the paper improves on, used here as the
    Table 1 baseline and as the source of reachable-state don't-cares. *)

(** Symbolic transition systems: BDD next-state functions over an
    inputs-then-interleaved-state variable layout, plus the partitioned
    image operator with early quantification. *)
module Trans : sig
  type t = {
    m : Bdd.manager;
    aig : Aig.t;
    n_pis : int;
    n_latches : int;
    pi_vars : int array;
    cs_vars : int array;  (** current-state variables *)
    ns_vars : int array;  (** next-state variables *)
    next_fns : Bdd.t array;  (** over (pi, cs) *)
    init : Bdd.t;  (** the initial-state cube over cs *)
    outputs : (string * Bdd.t) list;
    bdd_of_lit : int -> Bdd.t;
  }

  val make : ?node_limit:int -> ?latch_order:int array -> Aig.t -> t
  (** [latch_order] places latch [order.(p)]'s variable pair at position
      [p]: pass an interleaving order for product machines.  With
      [node_limit], construction may raise {!Bdd.Limit_exceeded}. *)

  val image : t -> Bdd.t -> Bdd.t
  (** Successors of a state set (over cs), via the partitioned relational
      product with early quantification. *)

  val image_with : t -> next_fns:Bdd.t array -> Bdd.t -> Bdd.t
  (** {!image} with substituted next-state functions (see {!Fundep}). *)

  val has_bad_state : t -> Bdd.t -> Bdd.t -> bool
  val property_all_outputs_one : t -> Bdd.t
end

(** Breadth-first reachability with budgets and an optional property. *)
module Traversal : sig
  type budget = { max_iterations : int; max_live_nodes : int; max_seconds : float }

  val default_budget : budget

  type stats = {
    iterations : int;
    peak_nodes : int;
    dependencies_found : int;
    seconds : float;
  }

  type outcome =
    | Fixpoint of Bdd.t  (** the exact reachable set (over cs) *)
    | Property_violation of int  (** depth of the first failure *)
    | Budget_exceeded of string

  type result = { outcome : outcome; stats : stats }

  val run : ?budget:budget -> ?use_fundep:bool -> ?property:Bdd.t -> Trans.t -> result
  (** Traverse from the initial state; [property] (over pi, cs) must hold
      on every reached state and input.  [use_fundep] compresses each
      frontier through functional-dependency detection [6] before taking
      the image. *)

  val check_equivalence : ?budget:budget -> ?use_fundep:bool -> Trans.t -> result
  (** {!run} with the property "all outputs are 1" — for product machines
      whose outputs are the XNORs of corresponding output pairs. *)

  val count_states : Trans.t -> Bdd.t -> float
end

(** Functional dependencies between state variables [6]. *)
module Fundep : sig
  type dependency = { var : int; fn : Bdd.t }

  val detect : Bdd.manager -> Bdd.t -> candidates:int list -> dependency list * Bdd.t
  (** Variables functionally determined by the rest within a set, their
      dependency functions (free of every dependent variable) and the
      compressed set. *)

  val substitution : Bdd.manager -> nvars:int -> dependency list -> Bdd.t option array
  val reconstruct : Bdd.manager -> Bdd.t -> dependency list -> Bdd.t
end

(** Approximate (over-approximated) reachability after Cho et al. [4]:
    per-block traversal with all other state variables free. *)
module Approx : sig
  val partition_latches : Trans.t -> k:int -> int list list
  val block_reachable : ?max_iterations:int -> Trans.t -> int list -> Bdd.t

  val upper_bound : ?block_size:int -> Trans.t -> Bdd.t
  (** Always contains the exact reachable set (property-tested), so it is
      safe as a care set for the paper's don't-care extension. *)
end

(** Bounded model checking by incremental SAT unrolling: exact refutation
    up to a depth, with a concrete input trace. *)
module Bmc : sig
  type counterexample = {
    depth : int;
    inputs : bool array array;  (** [inputs.(t).(i)]: PI [i] at frame [t] *)
    output : string;  (** name of the failing PO *)
  }

  type result =
    | No_counterexample of int  (** every PO is 1 up to this depth *)
    | Counterexample of counterexample
    | Budget of string

  val check :
    ?max_depth:int -> ?max_sat_calls:int -> ?ignore_outputs:string list -> Aig.t -> result
  (** Check that every PO holds (is 1) in all frames up to [max_depth].
      Counterexamples are validated by [Cert.Witness]: convert with
      [Cert.Witness.of_bmc] and replay with [Cert.Witness.refutes]. *)
end

(** Plain k-induction on the outputs: the monolithic modern baseline
    (sound; incomplete without uniqueness constraints). *)
module Induction : sig
  type outcome =
    | Proved of int  (** the k at which induction closed *)
    | Refuted of Bmc.counterexample
    | Unknown of string

  val check : ?max_k:int -> ?max_sat_calls:int -> Aig.t -> outcome
end
