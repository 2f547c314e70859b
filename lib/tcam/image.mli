(** Immutable snapshot of the TCAM: the query face of the mutation/query
    split, and the only place slot contents live.

    An [Image.t] is a copy-on-write trie over fixed-size chunks of flat
    arrays.  A chunk holds the rule payloads of 16 consecutive slots.
    Interior nodes fan out 32 ways, and a subtree without entries is one
    shared constant.

    Lookups are answered one of two ways, by entry count:
    - below {!index_min} entries, by a descending address scan over the
      chunks, which then also hold each slot's match key unboxed as four
      [int]s (value and care mask of the match field's low and high
      62-bit halves, copied from the rule's own key);
    - from {!index_min} entries up, by a tuple-space index: one tuple per
      distinct care mask, each a bitmap-compressed 32-way hash trie from
      the masked value to the addresses holding it, with the key ints
      inline in the trie.  A lookup probes every tuple once and returns
      the highest address any of them answers — exactly the entry the
      hardware's descending scan finds, including for equal fields at
      several addresses.  The chunks of an indexed image carry no keys.
      An image that falls below [index_min / 2] entries drops its index
      and keys its chunks again.

    Deriving the next image after a hardware op copies one chunk plus the
    O(log{_32} n) interior nodes above it, and edits the index by copying
    the tuple array and the O(log{_32} n) trie nodes on one key's path;
    everything else is shared, so a write allocates a bounded number of
    words at any table size.  A payload change that keeps the key and the
    address (an action rewrite) leaves the index as it is, and a move
    relocates its key in one edit.

    Publishing is a pointer swap: {!Tcam} derives a new image after every
    committed op and hands it to its publisher; readers grab the current
    image with one atomic load and keep it as long as they like.  Readers
    are wait-free and always see a table some committed prefix of the
    update sequence produced, never a half-applied move.

    The image carries rule {e payloads} as well as placements, so
    [lookup] is self-contained: a reader domain needs no access to the
    agent's mutable rule store.  A slot may hold an id whose payload is
    not bound (see {!Tcam.bind_rule}); such a slot is occupied but never
    matches.  The image keeps no id index: the writer's own tables map
    ids to addresses. *)

type slot = Free | Used of int  (** rule id *)

type t

val empty : t
(** No slots, epoch 0 — the placeholder before a table publishes. *)

val create : size:int -> t
(** [size] free slots, epoch 0.  @raise Invalid_argument if negative. *)

val size : t -> int

val epoch : t -> int
(** Strictly increases with every derived image ([write], [move],
    [erase], [touch], [fill]); readers can use it to detect
    publication. *)

val entry_count : t -> int
(** Occupied slots. *)

val index_min : int
(** The entry count from which an image answers lookups from its
    tuple-space index (256); it keeps the index down to half of that. *)

val indexed : t -> bool
(** Does the image carry the tuple-space index? *)

(** {2 Deriving images}

    Every address must lie in [\[0, size)]
    (@raise Invalid_argument otherwise).  A [payload] of [None] places
    [id] unbound. *)

val write : t -> addr:int -> id:int -> Fr_tern.Rule.t option -> t
(** Slot [addr] holds [id] with the given payload, whatever it held
    before (the writer refuses clobbering before it gets here). *)

val move : t -> src:int -> dst:int -> id:int -> Fr_tern.Rule.t option -> t
(** [write] at [dst] and free [src] in one step: a movement. *)

val erase : t -> addr:int -> t
(** Free the slot (erasing a free slot only bumps the epoch). *)

val touch : t -> t
(** The same slots, one epoch on: a publication that changes no slot. *)

val fill : t -> (int * int) array -> (int -> Fr_tern.Rule.t option) -> t
(** [fill t placed payload]: the empty image [t] with every
    [(rule_id, addr)] of [placed] occupying its slot, bound to
    [payload rule_id]; the chunks, and each tuple of the index when
    [placed] reaches {!index_min}, are built in one pass, one epoch on.
    @raise Invalid_argument if [t] has entries or an address repeats. *)

(** {2 Reading} *)

val read : t -> int -> slot
val is_free : t -> int -> bool

val rule_at : t -> int -> Fr_tern.Rule.t option
(** The bound payload at an address, if the slot holds one. *)

val lookup : t -> Fr_tern.Header.packet -> Fr_tern.Rule.t option
(** Highest-address matching entry, exactly as the TCAM hardware
    answers.  Indexed images probe each tuple once (a hash of the masked
    packet, a trie descent of O(log{_32} n) nodes) and then fetch the
    winning slot; smaller ones scan the slots downward, two [land]/[=]
    compares per occupied slot, empty subtrees skipped.  Neither
    allocates.  Unbound slots never match. *)

val lookup_id : t -> Fr_tern.Header.packet -> int option
(** [lookup] returning the winning rule id. *)

val find_first : t -> (int -> bool) -> int option
(** Lowest address whose occupant id satisfies the predicate; a scan
    that visits each chunk once and skips empty subtrees. *)

val find_last : t -> (int -> bool) -> int option
(** Highest address whose occupant id satisfies the predicate. *)

val fold : t -> init:'a -> f:('a -> addr:int -> rule_id:int -> 'a) -> 'a
(** Ascending address order over occupied slots. *)

val iter : t -> (addr:int -> rule_id:int -> unit) -> unit

val entries : t -> (int * Fr_tern.Rule.t) array
(** Occupied slots with bound payloads, ascending address — the input a
    software lookup backend compiles. *)

val pp : Format.formatter -> t -> unit
