(** [Fr_ctrl]'s front door: a sharded, batched, {e self-healing}
    control-plane service.

    The service is what a controller application programs against when
    one switch agent is not enough: it owns [N] {!Shard}s (each a full
    {!Fr_switch.Agent} with its own TCAM, dependency graph and
    scheduler), routes every flow-mod to its shard through a
    deterministic {!Partition}, folds redundant ops in per-shard
    {!Coalesce} queues, and applies everything pending in one {!flush} —
    per shard, one drain that hands each planned flow-mod to
    {!Fr_switch.Agent.apply}.

    Routing is sticky: an [Add] is placed by the partitioner and the
    service remembers the rule's shard (pending or installed), so
    [Set_action] and [Remove] follow their rule even under the
    prefix-locality policy, where the id alone does not determine the
    shard.  Ids the service has never routed fall back to the id hash —
    the shard then rejects the op exactly like a single agent would.
    The route table is kept in step with the shards incrementally: a
    {!flush} re-checks only the ids its shards took into their queues
    (an id routes to the shard that holds it, installed or queued, and
    loses its route when that shard drops it), so a flush costs the size
    of its window, not of the table.  Only {!recover} builds the table by
    scanning every shard.

    Failure isolation is structural: shards share nothing, a flush drains
    every shard regardless of its siblings' failures, and each shard's
    casualties are reported in its own {!Shard.drain_result}.

    On top of that sits the [Fr_resil] supervision layer:

    - {b Durability} — given a [journal] directory, every accepted submit
      is written ahead to a per-shard WAL ({!Fr_resil.Journal}), drains
      are bracketed by begin/commit markers, and the installed table is
      checkpointed on a cadence (and immediately after any drain whose
      damage a replay could not reproduce).  {!recover} rebuilds the
      whole service from the directory alone: checkpoint, deterministic
      replay of committed drains, and re-enqueueing of the uncommitted
      suffix as pending intent — so the installed state always equals the
      committed prefix, and no accepted intent is lost past its last
      sync.
    - {b Retry} — transient fault-plan casualties are re-driven within
      the flush, up to [retry_budget] rounds, with exponential backoff
      and jitter ({!Fr_resil.Backoff}) accounted as modelled delay in
      {!Telemetry}.
    - {b Circuit breaking} — a shard whose drains keep ending in
      hardware/verify damage is quarantined ({!Fr_resil.Breaker}):
      flushes skip it (siblings keep being served), submits for it queue
      up to [queue_bound] and are then shed with explicit {!Overloaded}
      rejections, and after a cooldown the breaker goes half-open and one
      probe drain decides re-admission.

    Telemetry aggregates per shard ({!Telemetry}); {!pp_stats} and
    {!to_json} dump the whole service. *)

(** {1 Supervision policy} *)

type resil = {
  retry_budget : int;  (** retry rounds per shard per flush *)
  breaker_threshold : int;  (** consecutive damaged drains that trip *)
  breaker_slow_threshold : int;
      (** consecutive slow drains that trip (only active when
          [slow_drain_ms] is finite) *)
  slow_drain_ms : float;
      (** per-op modelled hardware-time bound above which a damage-free
          drain counts as {e slow}; [infinity] defers to [slow_factor]
          (and disables the policy when that is 0 too).  A finite value
          always overrides the adaptive threshold. *)
  slow_factor : float;
      (** adaptive slow-call threshold: judge each drain against the
          shard's {e own} p99 per-op hardware time
          ({!Telemetry.hw_per_op_ms}) times this factor, once at least 8
          per-op samples exist — so the breaker tracks the shard's drift
          instead of a constant.  [0.0] (default) disables; ignored while
          [slow_drain_ms] is finite *)
  breaker_cooldown : int;  (** flush rounds quarantined before probing *)
  queue_bound : int;  (** max queued entries behind an open breaker *)
  failover : bool;
      (** divert new rule ids away from quarantined shards (and drain
          them back home on recovery) instead of queueing/shedding *)
}

val default_resil : resil
(** [retry_budget = 2], breaker trips after 3 damaged drains (slow-call
    policy disabled: [slow_drain_ms = infinity], [slow_factor = 0.0],
    [breaker_slow_threshold = 3] once enabled) and cools down for 2
    flushes, [queue_bound = 1024], failover routing off.

    Fixed, not configurable: retry backoff is {!Fr_resil.Backoff}'s
    default (1 ms doubling to 64 ms with ±20% jitter); a journaled shard
    checkpoints every 32 commits (and after any dirty drain) keeping 1
    table; the rebalance pass migrates at most 64 diverted ids home per
    flush. *)

type t

val default_domains : unit -> int
(** The [domains] value constructors use when the caller passes none:
    the [FASTRULE_DOMAINS] environment variable if it parses as a
    positive integer, else [1].  The library never grabs extra cores
    uninvited — the CLI defaults to
    {!Fr_exec.Pool.recommended} explicitly. *)

val journal_unused : dir:string -> (unit, string) result
(** [Ok ()] unless [dir] already holds a journal; the [Error] carries the
    message {!create} and {!of_rules} raise for such a directory. *)

val create :
  ?kind:Fr_switch.Firmware.algo_kind ->
  ?latency:Fr_tcam.Latency.t ->
  ?verify:bool ->
  ?policy:Partition.policy ->
  ?resil:resil ->
  ?journal:string ->
  ?domains:int ->
  shards:int ->
  capacity:int ->
  unit ->
  t
(** [shards] empty agents of [capacity] TCAM slots each.  Defaults:
    FastRule on the original layout, 0.6 ms/op, no shadow-table verify,
    {!Partition.Hash_id} routing, {!default_resil} supervision, no
    journal, [domains] from {!default_domains}.  [journal] names a
    directory (created if missing) that receives the service's shape
    metadata plus one WAL per shard.  [domains] is the number of
    executors a {!flush} may use to drain shards concurrently; [1] is the
    exact legacy sequential path, and any value produces bit-identical
    results (see {!flush}).
    @raise Invalid_argument if [journal] already holds a journal (see
    {!journal_unused}) — {!recover} from it instead of silently
    overwriting history — or if [domains < 1]. *)

val of_rules :
  ?kind:Fr_switch.Firmware.algo_kind ->
  ?latency:Fr_tcam.Latency.t ->
  ?verify:bool ->
  ?policy:Partition.policy ->
  ?resil:resil ->
  ?journal:string ->
  ?domains:int ->
  shards:int ->
  capacity:int ->
  Fr_tern.Rule.t array ->
  t
(** Partition an initial policy and bulk-load each shard's slice.  With
    [journal], each shard's starting table becomes its baseline
    checkpoint.
    @raise Invalid_argument if ids collide or a slice does not fit. *)

val shards : t -> int

val domains : t -> int
(** Executors {!flush} may use; [1] means strictly sequential. *)


val shard : t -> int -> Shard.t
(** @raise Invalid_argument if the index is out of range. *)

val published : t -> shard:int -> Fr_tcam.Image.t
(** One shard's current snapshot image — the data-plane read face.  A
    reader domain may call this (and {!lookup_published}) while {!flush}
    drains the very same shard on a pool domain: publication is an atomic
    pointer swap per committed hardware op, so the reader always sees a
    committed-prefix table and never blocks the writer.
    @raise Invalid_argument if the index is out of range. *)

val lookup_published :
  t -> shard:int -> Fr_tern.Header.packet -> Fr_tern.Rule.t option
(** Wait-free snapshot lookup on one shard ({!Fr_ctrl.Shard.lookup_published}). *)

val partition : t -> Partition.t

val set_fault : t -> shard:int -> Fr_tcam.Fault.t option -> unit
(** Install (or clear) a fault plan on one shard's agent — the
    conformance harness' lever for mid-batch aborts.
    @raise Invalid_argument if the index is out of range. *)

val breaker_state : t -> int -> Fr_resil.Breaker.state
val journaled : t -> bool

val diverted_count : t -> int
(** Rule ids currently living away from their static home under failover
    routing.  Converges back to 0 after the sick shard heals (the
    rebalance pass drains them home in batches of at most 64 per
    flush). *)

val dead_rows : t -> int
(** Total rows condemned by the shards' dead maps
    ({!Fr_ctrl.Shard.dead_rows} summed).  Under [failover], a shard with
    dead rows is only {e partially} degraded: it keeps serving its
    installed rules and its remaining writable capacity, and the service
    diverts just the overflow — a new Add whose home's effective
    capacity (capacity − dead rows) is exhausted goes to the rendezvous
    pick among the shards with room (keyed by the rule's {!Partition}
    prefix window so destination blocks stay colocated).  Each flush
    ends with a probe drill: shards still carrying dead rows re-test
    them against the hardware, revived rows re-enter the writable pool,
    and the next rebalance pass drains diverted ids home through the
    usual epoch fence. *)

val shard_of_rule : t -> int -> int option
(** Where a rule id lives (installed) or will live (pending add); [None]
    for ids the service is not tracking. *)

val routes_consistent : t -> (unit, string) result
(** Check the route upkeep: the route table must equal the one a full
    scan of every shard's installed rules and queued ops would build, and
    every failover overlay binding must agree with it.  [Error] names the
    first rule that disagrees.  O(table) — a test and oracle check, not
    something the flush path calls.  Holds after every {!flush},
    {!restart_shard} and {!recover}. *)

val rule_count : t -> int
(** Installed rules, summed over shards. *)

val find_rule : t -> int -> Fr_tern.Rule.t option

(** {1 Submitting} *)

type submit_outcome = Accepted | Overloaded of string

val try_submit : t -> Fr_switch.Agent.flow_mod -> submit_outcome
(** Route and enqueue one flow-mod (journaling it first when a WAL is
    attached).  [Overloaded] means the target shard is quarantined and
    its bounded queue is full: the op was {e not} accepted, and the same
    rejection is reported in the next flush's casualty list for that
    shard. *)

val submit : t -> Fr_switch.Agent.flow_mod -> unit
(** {!try_submit} with the outcome dropped (sheds still reach telemetry
    and the next flush report).  No hardware contact until {!flush}. *)

val submit_all : t -> Fr_switch.Agent.flow_mod list -> unit

val pending : t -> int
(** Queued entries over all shards. *)

(** {1 Flushing} *)

type flush_report = {
  results : Shard.drain_result array;  (** indexed by shard *)
  quarantined : int list;
      (** shards skipped this flush (breaker open); their result slot is
          {!Shard.empty_result} plus any shed submits as failures *)
  wall_ms : float;
}

val applied : flush_report -> int
val failures : flush_report -> (Fr_switch.Agent.flow_mod * string) list
(** All shards' casualties, shard order. *)

val flush : t -> flush_report
(** Drain every admitted shard (all of them, even when some report
    failures), retrying transient casualties under the backoff policy,
    advancing/settling each shard's breaker, writing the journal's
    begin/commit/checkpoint markers, running the failover rebalance pass
    (diverted ids whose home is healthy again migrate back, erase before
    re-insert, never two copies live), and reconciling the route of every
    id its shards took in (submits, retried requeues, rebalance moves)
    against that shard's installed state and queue — no pass over the
    installed table.  The reconciliation is inside [wall_ms].  Rebalance
    drains are merged into the owning shard's [results] slot.

    With [domains > 1] the per-shard drains — retries, breaker
    bookkeeping, journal append/fsync and telemetry included — run
    concurrently on a shared pool of OCaml domains
    ({!Fr_exec.Pool.shared}) and are joined {e deterministically}: shards
    share nothing inside a drain, each shard's backoff jitter comes from
    its own split PRNG stream, the adaptive slow threshold reads only the
    shard's own history, and reports are merged in shard order.  The
    result is bit-identical to the sequential path in everything modelled
    — applied/failed/coalesced counts, TCAM ops, modelled hardware ms,
    journal bytes, telemetry counters; only measured wall/firmware times
    differ.  Anything that crosses shards (the rebalance pass, route
    reconciliation) runs after the join barrier, in shard order. *)

val checkpoint : t -> unit
(** Force a checkpoint (and journal compaction) on every shard now.
    No-op without a journal. *)

(** {1 Crash and recovery} *)

val simulate_crash : ?mid_drain:bool -> t -> unit
(** Put the journal directory into the exact on-disk state of a process
    crash: with [mid_drain] (default false), begin markers are written
    for every shard with pending work first — the state of dying inside
    a flush after intent went durable but before any commit.  Closes the
    WALs; the service must not be used afterwards.
    @raise Invalid_argument if the service has no journal. *)

type readoption = {
  restart_replayed_drains : int;  (** committed drains re-driven *)
  restart_replayed_mods : int;  (** mods those drains covered *)
  restart_requeued : int;  (** uncommitted suffix re-enqueued *)
}

val restart_shard : t -> shard:int -> (readoption, string) result
(** A whole-shard restart fault, absorbed mid-run: shard [shard]'s agent
    loses all volatile state ({!Shard.reset}) and is re-adopted from its
    journal in place — checkpoint load, deterministic replay of committed
    drains, uncommitted suffix requeued — while the sibling shards keep
    running untouched.  The shard's hardware fault plan survives (the
    fault lives in the switch, not the agent process).  The routes of the
    ids the shard held before and holds after are reconciled once.  Only
    sound between flushes.  Errors when the rebuilt agent fails its consistency
    check or the journal cannot be read.
    @raise Invalid_argument if the index is out of range; [Error] if the
    service has no journal. *)

type recovery = {
  service : t;
  replayed_drains : int;  (** committed drains re-driven *)
  replayed_mods : int;  (** mods those drains covered *)
  requeued : int;  (** uncommitted suffix re-enqueued as pending *)
  interrupted : int;  (** shards with a begin marker but no commit *)
  warnings : string list;
      (** replay-count mismatches and consistency-check failures —
          recovery still completes, but the journal and the rebuilt state
          disagree somewhere *)
}

val recover :
  ?latency:Fr_tcam.Latency.t ->
  ?resil:resil ->
  ?domains:int ->
  journal:string ->
  unit ->
  (recovery, string) result
(** Rebuild a service from a journal directory alone (shape comes from
    the directory's metadata): per shard, load the last checkpoint,
    replay the committed drains after it (deterministic — dirty drains
    always checkpoint, so replay never crosses fault damage), verify the
    rebuilt agent ({!Fr_switch.Agent.verify_consistent}), and re-enqueue
    the uncommitted suffix as pending intent for the next {!flush}.  The
    installed state of the result equals the committed prefix of the
    journal.  The route table is built here by one scan of every shard.
    [Error] when the metadata is malformed or its shard count disagrees
    with the shard WALs present ({!Fr_resil.Journal.check_shards}). *)

(** {1 Dumps} *)

val pp_stats : Format.formatter -> t -> unit
(** Per-shard plain-text telemetry dump. *)

val to_json : ?scenario:string -> ?seed:int -> t -> Telemetry.Json.v
(** [{scenario?, seed?, shards, domains, policy, journaled, rules,
    per_shard: [...]}] — each shard contributes {!Telemetry.to_json}
    plus its rule count.  [seed] and [domains] make the dump
    self-reproducing: re-running the same scenario from the recorded
    seed on the recorded domain count regenerates the same telemetry
    (up to wall-clock samples). *)
