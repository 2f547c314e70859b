(** The OpenFlow-style 5-tuple header space used throughout the repository.

    A match field covers five packet-header fields, packed (most significant
    first) as

    {v  src_ip(32) | dst_ip(32) | src_port(16) | dst_port(16) | proto(8)  v}

    for a total width of 104 bits.  ClassBench-ng converts ClassBench rules
    and CAIDA prefixes into exactly this kind of OpenFlow match, so the
    synthetic workload generators produce fields of this shape. *)

val total_width : int
(** 104. *)

type field_spec = {
  src_ip : Ternary.t;  (** width 32 *)
  dst_ip : Ternary.t;  (** width 32 *)
  src_port : Ternary.t;  (** width 16 *)
  dst_port : Ternary.t;  (** width 16 *)
  proto : Ternary.t;  (** width 8 *)
}
(** Per-field ternary patterns before packing. *)

val pack : field_spec -> Ternary.t
(** Assemble the 104-bit match field.
    @raise Invalid_argument if any field has the wrong width. *)

val unpack : Ternary.t -> field_spec
(** Split a 104-bit match field back into its five components.
    @raise Invalid_argument if the input is not 104 bits wide. *)

val wildcard : field_spec
(** All five fields fully wildcarded. *)

type packet = {
  p_src_ip : int64;
  p_dst_ip : int64;
  p_src_port : int;
  p_dst_port : int;
  p_proto : int;
}
(** An exact packet header. *)

val packet_bits : packet -> int64 array
(** Pack a packet into chunks compatible with {!Ternary.matches_value} on a
    104-bit match field.  Each field contributes only its low bits (32
    for addresses, 16 for ports, 8 for the protocol). *)

val packet_lo : packet -> int
(** Positions 0..61 of {!packet_bits} as one unboxed int: the low half of
    the split {!Rule.t} keys use.  Allocates nothing. *)

val packet_hi : packet -> int
(** Positions 62..123 of {!packet_bits} (all from 104 up are 0): the
    high half. *)

val random_packet : Fr_prng.Rng.t -> packet
(** Uniform random header. *)

val packet_in : Fr_prng.Rng.t -> Ternary.t -> packet
(** [packet_in rng field] samples a packet matched by the given 104-bit
    field — used to exercise lookup paths on purpose-built packets. *)
