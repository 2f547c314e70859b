(** One control-plane shard: a switch agent behind a coalescing queue.

    A shard is the unit of failure isolation in {!Service}: it owns one
    {!Fr_switch.Agent.t} (its slice of the rule space), buffers submitted
    flow-mods in a {!Coalesce} queue, and applies them in bulk on
    {!drain}.  A drain runs erases first, then in-place rewrites, then
    the surviving insertions, each through {!Fr_switch.Agent.apply} —
    the scheduler refreshes its chain metrics after every update, as the
    paper's FastRule does.

    Failures stay local twice over: a failed op leaves the agent's table
    unchanged (the agent's own guarantee) and the drain carries on with
    the remaining ops, reporting every casualty in {!drain_result}[.failed]
    — and nothing a shard does can disturb a sibling shard, because
    shards share no state at all. *)

type t

val create :
  ?kind:Fr_switch.Firmware.algo_kind ->
  ?latency:Fr_tcam.Latency.t ->
  ?verify:bool ->
  capacity:int ->
  id:int ->
  unit ->
  t
(** An empty shard.  [verify] turns on the agent's shadow-table check
    ({!Fr_sched.Check}) for every drained sequence. *)

val of_rules :
  ?kind:Fr_switch.Firmware.algo_kind ->
  ?latency:Fr_tcam.Latency.t ->
  ?verify:bool ->
  capacity:int ->
  id:int ->
  Fr_tern.Rule.t array ->
  t
(** Bulk-load this shard's slice of an initial policy.
    @raise Invalid_argument like {!Fr_switch.Agent.of_rules}. *)

val id : t -> int
val agent : t -> Fr_switch.Agent.t

val published : t -> Fr_tcam.Image.t
(** This shard's current snapshot image ({!Fr_switch.Agent.published}).
    Wait-free; safe from any domain while the shard drains on another.
    Call it per lookup rather than caching the agent: a {!reset} swaps
    the agent underneath, and going through the shard always reads the
    live one. *)

val lookup_published : t -> Fr_tern.Header.packet -> Fr_tern.Rule.t option
(** Snapshot lookup on {!published} — no hit accounting (readers tally
    locally and merge via {!Fr_switch.Agent.account_hits}). *)

val telemetry : t -> Telemetry.t
val queue_depth : t -> int

val set_fault : t -> Fr_tcam.Fault.t option -> unit
(** Install a fault plan on this shard's agent
    ({!Fr_switch.Agent.set_fault}); drains then report each injected
    casualty in {!drain_result}[.failed] while the sibling shards stay
    untouched — the isolation the conformance fault-injection tests
    assert. *)

val reset : t -> Fr_tern.Rule.t array -> unit
(** A whole-shard restart fault: replace the agent with a fresh one
    holding [rules] and drop the coalescing queue — everything volatile
    dies, exactly what an agent-process crash loses.  The hardware fault
    plan carries over (the fault lives in the switch, not the process),
    and so does the discovered {!Fr_tcam.Deadmap} — the dead rows are in
    the silicon too, so the rebuilt agent packs its placement around
    them.  {!Service.restart_shard} follows this with a journal
    re-adoption. *)

val dead_rows : t -> int
(** Rows this shard's dead map currently condemns
    ({!Fr_switch.Agent.dead_rows}) — the amount by which its effective
    capacity shrinks under partial degradation. *)

val probe_dead : t -> int * int
(** Heal drill over this shard's dead rows
    ({!Fr_switch.Agent.probe_dead}); returns [(probed, recovered)]. *)

val submit : ?epoch:int -> t -> Fr_switch.Agent.flow_mod -> Coalesce.outcome
(** Fold one flow-mod into the queue (no hardware contact).  [epoch] is
    the id's failover placement epoch, threaded to {!Coalesce.push} as
    the ordering fence. *)

val requeue : ?epoch:int -> t -> Fr_switch.Agent.flow_mod -> Coalesce.outcome
(** Like {!submit} but without the [submitted] telemetry tick — for work
    the service already counted once: supervisor retries of transient
    casualties and journal replay during recovery. *)

val take_touched : t -> int list
(** The rule ids {!submit} and {!requeue} pushed since the last call,
    plus those the last call returned that were still queued then
    (repeats possible).  Only these ids can have entered or left this
    shard's table or queue in between — {!Fr_switch.Agent.apply} changes
    no id but its op's own — so they are all the service has to re-route
    after a flush.  {!reset} keeps the list. *)

val has_work : t -> bool
(** Whether a drain would do anything (pending ops or queued
    rejections). *)

val pending_mods : t -> Fr_switch.Agent.flow_mod list
(** The drain plan a {!drain} would execute now, without clearing
    anything — the service's full route rebuild uses it to keep routes
    alive for ops queued behind a quarantined shard. *)

val has_pending_id : t -> int -> bool
(** Whether any pending op touches rule [id] ({!Coalesce.mem}) — a
    queued id keeps its route, and the rebalance pass only migrates ids
    that are quiescent on both shards. *)

type drain_result = {
  shard : int;
  applied : int;  (** ops the agent accepted *)
  failed : (Fr_switch.Agent.flow_mod * string) list;
      (** agent rejections plus push-time coalesce rejections, with the
          agent's (or queue's) reason *)
  coalesced : int;  (** ops folded away before the drain *)
  firmware_ms : float;  (** scheduling + bookkeeping, this drain *)
  hardware_ms : float;  (** modelled TCAM time, this drain *)
  tcam_ops : int;
  wall_ms : float;
}

val drain : t -> drain_result
(** Apply everything pending and clear the queue.  Never raises on op
    failure; all accounting lands in the shard's {!Telemetry}. *)

val empty_result : shard:int -> drain_result
(** The all-zero result — what a flush reports for a shard it skipped
    (quarantined by its circuit breaker). *)
