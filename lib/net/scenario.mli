(** Seeded rollout scenarios: a topology plus an old → new policy diff.

    One seed determines everything — the flow prefixes (a mix of /16
    roots and /24 children nested inside them, so the per-switch
    dependency graphs have real edges), the paths, the waypoints, and
    which flows the new policy reroutes, withdraws or introduces.  The
    CLI, the rollout benchmark and the conformance oracle all build their
    fixtures here, so a failing seed reproduces everywhere. *)

type t = {
  topo : Topo.t;
  old_policy : Policy.t;
  new_policy : Policy.t;
  stamps : (int * int) list;  (** every old flow at version 0 *)
}

val make :
  ?flows:int ->
  ?reroute:int ->
  ?withdraw:int ->
  ?introduce:int ->
  ?waypoints:int ->
  seed:int ->
  Topo.t ->
  t
(** Defaults: 6 flows, 2 rerouted, 1 withdrawn, 1 introduced, 2 flows
    carrying waypoints.  [reroute + withdraw] is clamped to [flows].
    Both policies satisfy {!Policy.check} by construction. *)

val plan : ?batch:int -> t -> (Plan.t, string) result
(** Convenience: {!Plan.make} over the scenario's pieces. *)

(** {1 Per-switch fault schedules}

    A rollout's adversary: which switches fail, how, and when.  The
    schedule is interpreted by {!Fleet.execute} — rounds are the
    fleet's clock, so every fault is anchored to a round index. *)

type node_fault =
  | Crash_at of { round : int; mid_flush : bool }
      (** The switch's control agent dies at this round — at the round
          boundary, or (with [mid_flush]) after journaling the round's
          submissions, inside the flush.  The data plane keeps
          forwarding its last installed state (OpenFlow
          fail-standalone); the supervisor re-adopts the node from its
          journal.  Needs a journaled fleet. *)
  | Slow_from of { round : int; slow_ms : float; heal_after : int }
      (** From this round the node acks late: [slow_ms] modelled ms are
          billed per flush attempt (and per hardware op) until
          [heal_after] timed-out attempts have elapsed. *)
  | Stuck_bank of { round : int; shard : int; rows : int list }
      (** From this round the shard's TCAM rows are stuck-at-write
          (PR 8 degraded-hardware machinery): writes there fail until
          the dead-row discovery relocates around them.  Permanent —
          hardware does not heal. *)

type fault_schedule = (int * node_fault list) list
(** [(node, faults)] pairs, node-ascending. *)

val fault_to_string : int * node_fault -> string
(** ["2:crash@3+mid"], ["0:slow@1=250x3"], ["1:stuck@0=1:5+12"]. *)

val fault_of_string : string -> (int * node_fault, string) result
(** Parse the {!fault_to_string} form ([NODE:KIND@ROUND...]). *)

val schedule_of_faults : (int * node_fault) list -> fault_schedule
(** Group a flat fault list into a node-ascending schedule, preserving
    each node's fault order. *)

val has_crash : fault_schedule -> bool
(** The schedule crashes some node's control agent: the fleet must be
    journaled, so the node can be re-adopted from its journal. *)

val chaos_faults :
  ?max_faults:int ->
  ?shards:int ->
  ?capacity:int ->
  seed:int ->
  rounds:int ->
  nodes:int ->
  unit ->
  fault_schedule
(** A seeded random schedule of 1 to [max_faults] (default 3) faults:
    uniformly mixed crash / slow / stuck faults at uniformly random
    rounds and nodes, at most one crash per node.  [shards] (default 2)
    and [capacity] (default 64) bound the stuck banks to addresses the
    fleet's shards actually have. *)

val pp : Format.formatter -> t -> unit
