(** Flow entries (rules): a match field plus an action.

    Rules are the unit stored in the TCAM and the nodes of the dependency
    graph.  Each rule carries a stable integer id assigned at creation; ids
    are how the DAG, the TCAM model and the schedulers refer to entries
    without sharing mutable rule state. *)

type action =
  | Forward of int  (** output port *)
  | Drop
  | Controller  (** punt to the SDN controller *)

type t = private {
  id : int;  (** unique, stable identity *)
  field : Ternary.t;  (** the (packed) match field *)
  action : action;
  priority : int;  (** policy priority: larger = matched first *)
  lo_value : int;
  lo_mask : int;
  hi_value : int;
  hi_mask : int;
      (** The match key, computed once by {!make}: value and care mask of
          the field's low (positions 0..61) and high (62..123) halves as
          unboxed ints.  A packet matches iff
          [Header.packet_lo p land lo_mask = lo_value] and
          [Header.packet_hi p land hi_mask = hi_value].  A field that
          requires a 1 at a position from 124 up, which no packet has,
          gets [lo_value = min_int], which no packet matches.  The TCAM
          image, the overlap index and packet matching all read this key;
          keys of two 104-bit fields overlap exactly when the fields do. *)
}
(** Private, so the key always agrees with the field: build with {!make}
    and change the action with {!with_action}. *)

val make : id:int -> field:Ternary.t -> action:action -> priority:int -> t

val with_action : t -> action -> t
(** The same rule (id, field, priority, key) with another action. *)

val overlaps : t -> t -> bool
(** Match-field overlap (see {!Ternary.overlaps}). *)

val subsumes : t -> t -> bool
(** [subsumes a b]: [a]'s field generalises [b]'s. *)

val matches_packet : t -> Header.packet -> bool
(** Does the packet fall in the field?  Reads the key, so it allocates
    nothing; for a field narrower than 104 bits only the packet's low
    positions take part.  Only meaningful for 104-bit (5-tuple) rules. *)

val conflicts : t -> t -> bool
(** [conflicts a b]: the fields overlap and the actions differ — the cases
    where relative TCAM order is semantically observable.  The dependency
    graph may conservatively also order non-conflicting overlaps; this
    predicate is used by the lookup-equivalence tests. *)

val equal_action : action -> action -> bool
val pp_action : Format.formatter -> action -> unit
val pp : Format.formatter -> t -> unit

module Id_set : Set.S with type elt = int
module Id_map : Map.S with type key = int
