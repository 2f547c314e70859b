(** The TCAM model: an addressed array of flow-entry slots where lookups
    return the matching entry with the {e highest} physical address (§II).

    The slots live in one place: the copy-on-write {!Image.t} this table
    publishes.  Every read ([read], [is_free], [iter_used], ...) goes to
    the current image, and every write derives and publishes the next one.
    Beside it the writer keeps two private indexes: id -> address (for
    {!write}'s move semantics) and id -> bound payload (for
    {!bind_rule}).  It counts every hardware write (the quantity that,
    times the per-write latency, gives the paper's "TCAM update time"),
    and can check the dependency-order invariant against a DAG. *)

type slot = Image.slot = Free | Used of int  (** rule id *)

type t

val create : size:int -> t
(** All slots free, with a fresh empty {!Deadmap} attached (use
    {!adopt_deadmap} when a restarting switch should keep what it
    learnt about its hardware). *)

val size : t -> int
val used_count : t -> int
val free_count : t -> int

val read : t -> int -> slot
(** @raise Invalid_argument if the address is out of range. *)

val is_free : t -> int -> bool

val addr_of : t -> int -> int option
(** Current address of a rule id, if present. *)

val mem : t -> int -> bool

val write : t -> rule_id:int -> addr:int -> unit
(** Raw hardware write of an entry at an address.  If the id already lives
    at another address, that slot is freed (a movement).  Overwriting a slot
    occupied by a {e different} id is refused — schedulers must order their
    sequences so this never happens (see {!apply_sequence}).
    @raise Invalid_argument on clobbering or out-of-range address. *)

val erase : t -> addr:int -> unit
(** Raw hardware erase.  Freeing a free slot is allowed (counts as an op —
    the firmware did issue it). *)

val load : ?payload:(int -> Fr_tern.Rule.t option) -> t -> (int * int) array -> unit
(** [load t placed] puts every [(rule_id, addr)] of [placed] into the
    empty table [t] at once: the image's chunks are built in one pass and
    published once, each id bound to [payload rule_id] when that is
    [Some] (default: none bound).  A bulk load is set-up, not an update,
    so no op is counted; the dead map sees one success per address, as
    for {!write}.
    @raise Invalid_argument if [t] has entries, or on a repeated id or
    address, or an address out of range. *)

val apply_sequence : t -> Op.t list -> unit
(** Apply an update sequence left to right.  Schedulers return sequences in
    {e application order} (see {!Fr_sched.Algo} once linked): for an insert
    chain the op landing in free space comes first, so each write happens
    before its source slot is reused and every intermediate hardware state
    is lookup-safe. *)

val ops_issued : t -> int
(** Lifetime count of hardware writes + erases. *)

val moves_issued : t -> int
(** Lifetime count of writes that re-positioned an existing entry. *)

val reset_counters : t -> unit

val iter_used : t -> (addr:int -> rule_id:int -> unit) -> unit
(** Ascending address order. *)

val used_ids : t -> int list

val first_used : t -> (int -> bool) -> int option
(** Lowest address whose occupant id satisfies the predicate: a full
    table scan that walks the image chunk by chunk rather than slot by
    slot through {!read}. *)

val highest_used : t -> int option
val lowest_free : t -> int option
(** Linear scans; convenience for tests and layout setup. *)

val lookup : t -> rules:(int -> Fr_tern.Rule.t) -> Fr_tern.Header.packet -> int option
(** Highest-address matching entry, as the hardware would answer.  [rules]
    maps a stored id to its payload.  The reference scan: it matches each
    occupant's field bit by bit rather than through the image's keys. *)

val check_dag_order : t -> Fr_dag.Graph.t -> (unit, string) result
(** For every edge [u -> v] with both entries present: [addr u < addr v].
    The central correctness invariant (DESIGN.md §6.1). *)

val deadmap : t -> Deadmap.t
(** The attached dead-row map.  {!write} reports successes to it
    automatically; failures never reach the [Tcam], so the fault-aware
    driver ([Fr_switch.Agent]) reports them via
    {!note_write_failure}. *)

val is_dead : t -> int -> bool
(** [Deadmap.is_dead (deadmap t)] — the query every scheduler's
    candidate-slot search asks. *)

val dead_count : t -> int

val note_write_failure : t -> addr:int -> bool
(** Record a failed hardware write at [addr]; returns [true] when the
    row was newly declared dead (see {!Deadmap.note_failure}). *)

val adopt_deadmap : t -> Deadmap.t -> unit
(** Replace the attached map (restart paths carry hardware knowledge
    across re-adoption).  @raise Invalid_argument on size mismatch. *)

val writable_free_in : t -> lo:int -> hi:int -> int option
(** Lowest free, non-dead address in [\[lo, hi\]] (clamped), if any. *)

val image : t -> Image.t
(** The current published snapshot.  Re-derived (copy-on-write: one chunk
    and its O(log{_32} n) interior path) by every {!write} / {!erase} /
    {!bind_rule} / {!unbind_rule}, so it always reflects exactly the
    committed ops — a reader holding it sees a consistent table even while
    a cascade is mid-flight. *)

val set_publisher : t -> (Image.t -> unit) option -> unit
(** Install the publication hook: called with the fresh image after every
    op that changes it.  {!Fr_switch.Agent} points this at an [Atomic.t]
    so concurrent readers pick up each committed step with one atomic
    load ({i the} epoch/RCU pointer swap). *)

val bind_rule : t -> Fr_tern.Rule.t -> unit
(** Bind a rule payload to its id (and publish): a placed id's slot is
    rewritten to carry it, and any later {!write} of the id carries it.
    Bound {e before} the insertion sequence commits so every mid-cascade
    snapshot can resolve the id it is about to see. *)

val unbind_rule : t -> id:int -> unit
(** Drop a payload (and publish), after a removal commits.  A slot still
    holding the id stays occupied but no longer matches. *)

val image_consistent : t -> (unit, string) result
(** Cross-check the writer's indexes against the published image: every
    id in the id -> address index occupies exactly that slot and carries
    exactly its bound payload (or none), and the image holds as many
    entries as the index.  {!Fr_sched.Check.sequence} runs this after
    every simulated op, so a verified sequence proves each publication
    point is coherent. *)

val copy : t -> t
(** Copy of the indexes and counters, including an independent copy of
    the dead map.  The image is shared (it is immutable) but the copy's
    publisher is [None]: simulation copies must never publish phantom
    states. *)

val pp : Format.formatter -> t -> unit

(**/**)

val unsafe_set_addr : t -> rule_id:int -> addr:int -> unit
(** Internal: rewrite one id -> address index entry without touching the
    image.  Exists so tests can show {!image_consistent} catches an index
    that disagrees with the slots. *)
