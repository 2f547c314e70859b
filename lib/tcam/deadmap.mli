(** Discovered dead TCAM rows — the switch's persistent memory of which
    addresses reject writes.

    Real TCAMs ship with (and accumulate) stuck cells.  The schedulers
    cannot see a {!Fault} plan — faults model the hardware, not the
    firmware's knowledge of it — so the firmware learns the hard way:
    every failed hardware {e write} is reported here ({!note_failure}),
    and after [threshold] consecutive failures at the same address the
    row is declared dead.  Every successful write at an address clears
    it again ({!note_success}) — rows can heal, and a probe drill uses
    the same entry point when it finds recovered hardware.

    The failure mode modelled is {e stuck-at-write}: a dead row rejects
    new content, but its valid bit still clears, so entries can always
    be {e moved out} of a dead row and erases still succeed (see
    {!Fault.should_fail_erase}).  Consumers therefore only need to keep
    write targets off dead rows; occupied dead rows are immovable
    obstacles whose entries remain readable.

    The map is advisory: {!Tcam.write} is not gated on it.  Spurious
    marks (a spontaneous bus error, not a broken row) are harmless —
    the row is avoided until the next successful write or probe clears
    it. *)

type t

val create : ?threshold:int -> size:int -> unit -> t
(** [threshold] (default 1) is the number of {e consecutive} write
    failures at an address before it is declared dead.
    @raise Invalid_argument if [size <= 0] or [threshold < 1]. *)

val size : t -> int
val threshold : t -> int

val count : t -> int
(** Number of addresses currently marked dead. *)

val is_empty : t -> bool
(** No dead rows {e and} no pending strikes — the fast-path guard
    consumers use to skip dead-awareness entirely on healthy
    hardware. *)

val is_dead : t -> int -> bool
(** @raise Invalid_argument if the address is out of range. *)

val note_failure : t -> addr:int -> bool
(** Record one failed write at [addr].  Returns [true] when this
    failure crossed the threshold and the row was newly marked dead. *)

val note_success : t -> addr:int -> bool
(** Record one successful write at [addr]: resets its strike count and
    revives the row if it was marked dead.  Returns [true] when a dead
    row was revived. *)

val mark : t -> addr:int -> bool
(** Unconditionally mark [addr] dead (tests, pre-known bad banks).
    Returns [true] if the row was not already dead. *)

val clear : t -> unit
(** Forget everything — all rows healthy, all strikes erased. *)

val dead_list : t -> int list
(** Dead addresses in ascending order. *)

val intervals : t -> (int * int) list
(** Maximal runs of dead addresses as inclusive [(lo, hi)] pairs,
    ascending — the hole view the defrag planner packs around. *)

val copy : t -> t
val pp : Format.formatter -> t -> unit
