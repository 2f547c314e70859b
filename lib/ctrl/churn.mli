(** A reusable multi-shard churn scenario — the control-plane workload
    that [fastrule_cli ctrl], the plane storm and the tests drive.

    The stream models BGP-style update churn against a warm table: a
    synthetic policy ({!Fr_workload.Dataset}) is partitioned across the
    shards, then [ops] flow-mods — a weighted mix of insertions of fresh
    rules, removals of live ones and in-place action rewrites — are
    submitted and flushed every [batch] ops, so the coalescing queues
    actually get bursts to chew on.  Everything is seeded and
    deterministic. *)

type spec = {
  kind : Fr_workload.Dataset.kind;
  initial : int;  (** rules preloaded before the stream starts *)
  ops : int;  (** flow-mods submitted *)
  shards : int;
  capacity : int;  (** TCAM slots per shard *)
  batch : int;  (** ops per flush window *)
  seed : int;
}

type result = {
  service : Service.t;  (** final state, telemetry included *)
  submitted : int;
  applied : int;
  failed : int;  (** drain failures, push-time rejections included *)
  coalesced : int;
  flushes : int;
  retries : int;  (** supervisor retry rounds, summed over shards *)
  shed : int;  (** submits rejected behind open breakers *)
  breaker_opens : int;  (** circuit-breaker trips, summed over shards *)
  diverted : int;  (** new ids failover-routed away from sick homes *)
  rebalanced : int;  (** diverted ids drained back home after heal *)
  restarts : int;  (** whole-shard restart faults absorbed mid-run *)
  flush_wall_ms : Fr_switch.Measure.summary;
      (** wall-clock per {!Service.flush} call *)
}

(** {1 Chaos: scheduled whole-shard fault/heal events} *)

type chaos_action =
  | Chaos_fault of Fr_tcam.Fault.spec
      (** install a write-failure plan on the shard *)
  | Chaos_slow of float
      (** install a latency fault: this many extra modelled ms per
          hardware op (trips the breaker's slow-call policy, never fails
          an op) *)
  | Chaos_restart
      (** kill and re-adopt the shard's agent via
          {!Service.restart_shard}; degrades to a no-op on an unjournaled
          service *)
  | Chaos_heal  (** clear the shard's fault plan *)

type chaos_event = { at_flush : int; shard : int; action : chaos_action }
(** [action] fires on [shard] just before the flush numbered [at_flush]
    (0-based count of completed flushes). *)

val chaos_plan :
  seed:int -> shards:int -> flushes:int -> events:int -> chaos_event list
(** A seeded, deterministic schedule of [events] fault-domain events over
    a run expected to flush [flushes] times: slow faults, write-failure
    faults and restarts land on healthy shards, heals and restarts on
    sick ones.  Sorted by [at_flush].
    @raise Invalid_argument if [shards] or [flushes] is below 1. *)

val pp_chaos_event : Format.formatter -> chaos_event -> unit

val run :
  ?policy:Partition.policy ->
  ?algo:Fr_switch.Firmware.algo_kind ->
  ?verify:bool ->
  ?resil:Service.resil ->
  ?journal:string ->
  ?domains:int ->
  ?configure:(Service.t -> unit) ->
  ?chaos:chaos_event list ->
  ?stop_after_flushes:int ->
  spec ->
  result
(** [configure] runs right after the service is built, before any op is
    submitted — the hook for installing fault plans.  [domains] is handed
    to {!Service.of_rules}: the run's flushes drain shards on that many
    executors, with results identical to [domains = 1] by construction.  [chaos] events fire
    between flushes, each just before the flush its [at_flush] names
    (events whose flush never happens are dropped).  [stop_after_flushes]
    abandons the stream at the flush that would follow the [n]th: the
    current window's ops stay queued (and, with [journal], journaled but
    uncommitted), which is exactly the suffix the CLI's crash simulation
    wants recovery to find.
    @raise Invalid_argument if the initial policy does not fit its
    shards. *)
