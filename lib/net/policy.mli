(** Network policies: prefix-matched flows, paths, waypoints, and the
    version-tagged rules that realise them.

    A {e flow} is the planner's unit of intent: all traffic to one
    destination prefix, entering the fabric at a fixed ingress and
    carried along one configured simple path (optionally through a
    mandatory waypoint).  A policy is a set of flows with pairwise
    distinct prefixes; prefixes may nest, in which case the longest
    prefix wins exactly as in the per-switch tables — nesting is what
    gives the per-switch dependency graphs real edges.

    {b Version tagging.}  Rules are installed per (flow, version) with
    the version ∈ {0, 1} encoded in the proto byte of the match field
    and in the low bit of the rule id.  A packet is {e stamped} with a
    version at its ingress (the two-phase update protocol's ingress
    stamp) and can therefore only ever match rules of that version —
    per-packet consistency reduces to "both versions' rule sets are
    whole at every instant the stamp can name them". *)

type flow = {
  flow_id : int;  (** unique, >= 0 *)
  dst_value : int64;  (** destination prefix bits (32-bit, high-aligned) *)
  plen : int;  (** prefix length, 1..32; doubles as rule priority *)
  path : int list;  (** ingress first, egress last; a simple path *)
  waypoint : int option;  (** must lie on [path] when configured *)
}

type t = flow list

val ingress : flow -> int
val egress : flow -> int

val prefix_bits : plen:int -> int64 -> int64
(** The [plen] most significant bits of a 32-bit address — the canonical
    form used to compare prefixes and test membership. *)

(** {1 Rule encoding} *)

val rule_id : flow_id:int -> version:int -> int
(** [2 * flow_id + version]. *)

val rule : flow -> version:int -> port:int -> Fr_tern.Rule.t
(** The TCAM rule one hop installs: dst = the flow's prefix, proto = the
    version tag, everything else wildcarded; priority = prefix length;
    action [Forward port]. *)

val hop_rules : Topo.t -> flow -> version:int -> (int * Fr_tern.Rule.t) list
(** [(node, rule)] for every hop of the flow's path: interior hops
    forward to the port leading to the next hop, the egress forwards to
    its host port.
    @raise Invalid_argument if consecutive path nodes are not linked. *)

(** {1 Packets} *)

val stamp_packet :
  Fr_tern.Header.packet -> version:int -> Fr_tern.Header.packet
(** The ingress stamp: rewrite the proto byte to the version tag. *)

val packet_for :
  ?tries:int ->
  Fr_prng.Rng.t ->
  all:t ->
  flow ->
  Fr_tern.Header.packet option
(** A packet in the flow's {e pure region}: dst inside the flow's prefix
    but outside every strictly-longer prefix in [all] — so the flow wins
    the longest-prefix match at every switch that carries it.  Proto is
    left 0 (stamp it with {!stamp_packet}).  [None] when [tries]
    (default 64) rejection samples all landed in nested prefixes. *)

val winner : t -> Fr_tern.Header.packet -> flow option
(** The policy-level longest-prefix match on the packet's destination
    (ties broken by lower flow id, mirroring the TCAM tie-break). *)

val find : t -> int -> flow option

val check : Topo.t -> t -> (unit, string) result
(** Structural validity: ids and prefixes pairwise distinct, every path
    a linked simple path of length >= 2, waypoints on their paths. *)

val pp_flow : Format.formatter -> flow -> unit
