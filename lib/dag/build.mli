(** The policy compiler: rules -> minimum dependency graph (stage 1 of the
    FastRule pipeline, §III).

    A rule [a] must sit below rule [b] (edge [a -> b]) when their match
    fields overlap and [b] has the higher policy priority — otherwise a
    packet in the intersection would be answered by the wrong entry.  The
    {e minimum} graph keeps only edges not implied transitively: an edge
    [a -> b] is dropped when some other overlapping rule [c] already forces
    [a -> c ->* b], because address order is transitive.  The transitive
    closure of the produced graph therefore covers every overlapping pair,
    which is the correctness contract the schedulers rely on.

    Overlapping rules with {e equal} priority have no semantically forced
    order; we orient them deterministically by id (larger id depends on
    smaller) so compilation is a function of the rule set. *)

val compile : Fr_tern.Rule.t array -> Graph.t
(** Full-table compilation, O(n^2) pairwise overlap tests plus reachability
    filtering (cheap in practice because dependency chains are short).
    Every rule id becomes a node even if isolated. *)

val compile_fast : ?index:Overlap_index.t -> Fr_tern.Rule.t array -> Graph.t
(** Identical result to {!compile} (the test suite asserts edge-for-edge
    equality), with overlap candidates narrowed through
    {!Overlap_index}.  [index], which must be empty, is left holding
    every rule, so a caller that keeps the table live (the switch agent)
    does not build a second one.
    @raise Invalid_argument if [index] is not empty. *)

val dependencies_of :
  Graph.t -> existing:Fr_tern.Rule.t list -> Fr_tern.Rule.t -> int list * int list
(** [dependencies_of g ~existing r] computes what inserting [r] into the
    compiled table would add: [(deps, dependents)] where [deps] are the
    minimal higher-precedence overlapping rules ([r] -> each) and
    [dependents] the maximal lower-precedence overlapping rules (each -> [r]).
    [g] must be the graph compiled from [existing]; it is not modified. *)

val insert : Graph.t -> existing:Fr_tern.Rule.t list -> Fr_tern.Rule.t -> unit
(** Incrementally add [r]'s node and the edges from {!dependencies_of}. *)

val remove : ?contract:bool -> Graph.t -> int -> unit
(** Remove a rule's node (see {!Graph.remove_node}). *)

val closure_covers_overlaps : Graph.t -> Fr_tern.Rule.t array -> bool
(** Test oracle: does the transitive closure of [g] order every overlapping
    pair of distinct-precedence rules correctly?  Used by the test suite to
    validate {!compile}. *)
