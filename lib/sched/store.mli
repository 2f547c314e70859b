(** Metric storage back-ends — the three methods of §III/§IV.

    The greedy's inner step is "find the candidate address with the minimum
    metric".  The paper gives three ways to answer it:

    - {e on-demand} ([On_demand]): recompute [M] for every candidate at
      query time — O(c_avg x range) per query, nothing to maintain;
    - {e pre-compute with array} ([Array_backend]): keep [M] in a plain
      array — O(range) scan per query;
    - {e pre-compute with BIT} ([Bit_backend]): keep [M] in the modified
      Binary Indexed Tree — O(log n) query, O((log n)^2) per changed
      value.

    The two pre-computed back-ends also keep, for every slot, its
    occupant's next hop ({!Dir.next_hop}) and chain length, packed in one
    int array.  The metric is then [M(a) = 1 + M(hop a)], an O(1) read,
    and upkeep after an update costs one full dependency scan (O(c_avg))
    per changed address plus O(c_avg) per entry whose chain length
    actually moved — not a chain walk per entry that might have.

    All three implement the same interface and, by construction, the same
    tie-breaking: the candidate {e nearest the entries} wins ties — the
    lowest address for {!Dir.Up}, the highest for {!Dir.Down} (the BIT runs
    on mirrored indices for [Up]).  This deviates from Algorithm 1's
    literal [<=] scan, which would prefer the farthest candidate and eat
    the free pool from the wrong end until the top slot strands; it agrees
    with the paper on every worked example (ties between {e free} slots
    never change the op count, only future packing).  A scheduler's
    decisions are identical across back-ends; the test suite asserts
    this. *)

type backend =
  | On_demand
  | Array_backend
  | Bit_backend

val backend_to_string : backend -> string
val all_backends : backend list

type t

val create : backend:backend -> dir:Dir.t -> Fr_dag.Graph.t -> Fr_tcam.Tcam.t -> t
(** Builds the initial metrics for every address with one dependency scan
    per slot (O(n c_avg)).  The store
    keeps references to the graph and TCAM; call {!refresh} after every
    applied update to keep the pre-computed back-ends truthful.  Slot
    reads go to the TCAM's published chunk image ({!Fr_tcam.Tcam.read}
    descends O(log{_32} n) nodes); every applied op republishes that
    image by copying one chunk and its interior path, so the store reads
    the committed state after each op without copying the table. *)

val dir : t -> Dir.t
val backend : t -> backend

val get : t -> int -> int
(** Metric at an address (computed on the fly for [On_demand];
    {!dead_metric} for dead rows). *)

val hop : t -> int -> int option
(** The next hop of the entry at an address, as the back-end currently
    believes it ([On_demand] scans fresh); [None] for a free slot or an
    unconstrained entry.  The property tests compare it against a fresh
    {!Dir.next_hop} after every update. *)

val min_in : t -> lo:int -> hi:int -> (int * int) option
(** [(address, metric)] minimising the metric over the inclusive range,
    ties broken toward the free-space pool; [None] when [lo > hi] or
    when every address in range is dead (the returned address is never
    a dead row — stale pre-discovery values are lazily repaired).
    Endpoints are clamped to the TCAM. *)

val refresh : t -> addrs:int list -> ids:int list -> unit
(** Re-establish correctness after the TCAM and/or graph changed.
    [addrs] must hold every address whose occupancy changed (every op
    address of the applied sequence, plus any move source it left
    vacated); [ids] are entries that may have lost a constraint without
    their own slot changing (the neighbours of a deleted node).  The
    graph may gain edges freely but may lose them only with a node whose
    slot is in [addrs].

    Each changed address gets a full dependency scan.  Any other entry
    keeps its cached hop unless that hop's slot changed and no longer
    holds one of its constraints (then it rescans); an entry takes a
    constraint that landed at a changed address as its hop when that
    address is nearer.  A chain-length change spreads only to the
    entries that hop to it ({!Dir.propagation_targets}), until values
    stabilise.  No-op for [On_demand]. *)

val rebuild : t -> unit
(** Recompute everything from scratch (test oracle / recovery hatch): one
    dependency scan per slot, in chain order (descending addresses for
    [Up], ascending for [Down]). *)

val snapshot : t -> int array
(** The metric of every address as the back-end currently believes it
    ([On_demand] computes fresh).  The property tests compare this against
    a from-scratch recomputation after every update. *)
