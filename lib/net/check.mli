(** Brute-force transient-path checking.

    This module is the planner's adversary: it knows nothing about
    rounds being "safe by construction" and simply walks {e every}
    reachable instant of a rollout — initial state, after each switch's
    batch inside every round, after each individual ingress-stamp flip,
    and the final state — tracing stamped packets hop by hop through
    per-switch longest-prefix lookups and comparing each trace to the
    exact path its (flow, version) is configured for.

    The per-packet consistency property it enforces: a packet stamped
    with version [v] of flow [f] must traverse {e exactly} the path that
    version of the policy configures for [f] (hence entirely old or
    entirely new, never a mix), be delivered at that path's egress, and
    pass the configured waypoint.  Packets are sampled from each flow's
    {e pure region} (see {!Policy.packet_for}) with respect to the union
    of the old and new policies, so the expected trace is unambiguous.

    The pure model tables in {!Model} mirror
    [Fr_switch.Agent.semantic_lookup] (max priority, ties to the lower
    rule id) without any TCAM, scheduler or service machinery — which is
    what makes this a genuinely independent oracle for both the planner
    ({!check_plan}) and the live fleet (feed {!consistent} a lookup into
    real services). *)

(** Pure per-node rule tables. *)
module Model : sig
  type t

  val create : Topo.t -> t

  val apply : t -> int -> Fr_switch.Agent.flow_mod -> unit
  (** Apply one flow-mod at one node.  [Add] of an existing id and
      [Remove]/[Set_action] of a missing id raise [Invalid_argument] —
      the planner must never emit those. *)

  val lookup : t -> int -> Fr_tern.Header.packet -> Fr_tern.Rule.t option
  (** Highest priority, ties to the lower rule id. *)

  val rules : t -> int -> Fr_tern.Rule.t list
  (** The node's table, id-ascending. *)

  val of_policy :
    Topo.t -> version_of:(Policy.flow -> int) -> Policy.t -> t
  (** Fresh tables holding each flow's rules at the given version. *)
end

type outcome =
  | Delivered of int  (** forwarded to the host port at this node *)
  | Dropped of int  (** matched a [Drop] / [Controller] rule here *)
  | Missing of int  (** no rule matched here *)
  | Looped  (** hop budget exhausted *)

val outcome_to_string : outcome -> string

val trace :
  Topo.t ->
  lookup:(int -> Fr_tern.Header.packet -> Fr_tern.Rule.t option) ->
  ingress:int ->
  Fr_tern.Header.packet ->
  int list * outcome
(** Hop-by-hop walk from [ingress]; returns the nodes visited in order
    (the ingress first) and how the walk ended. *)

val consistent :
  ?samples:int ->
  rng:Fr_prng.Rng.t ->
  Plan.t ->
  stamps:(int -> int option) ->
  lookup:(int -> Fr_tern.Header.packet -> Fr_tern.Rule.t option) ->
  where:string ->
  string list
(** Check one instant: for every flow the instant stamps, sample up to
    [samples] (default 2) pure-region packets, stamp, trace, and demand
    the exact configured path, delivery at its egress and the waypoint.
    Returns violation descriptions (empty = consistent). *)

val check_plan :
  ?samples:int -> ?seed:int -> Plan.t -> (unit, string list) result
(** Walk every reachable instant of the plan over {!Model} tables and
    also require the final tables to equal fresh tables built from the
    new policy at the post-rollout stamps.  [Ok ()] when no instant
    violates consistency. *)
