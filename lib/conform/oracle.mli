(** The differential conformance oracle.

    One seeded trace is replayed through {e every} standard scheduler
    (Naive, RuleTris, FR-O, FR-SD, FR-SB), each driving its own
    {!Fr_switch.Agent} with the shadow-table check on, and the oracle
    cross-examines the five tables after every event:

    - {b sequence validity} — the agent runs {!Fr_sched.Check.sequence}
      over every emitted sequence before it touches the TCAM; a rejection
      surfaces as a ["verify: "]-prefixed error and is {e always} a
      divergence (the scheduler emitted a wrong sequence);
    - {b dependency invariant} — {!Fr_tcam.Tcam.check_dag_order} on every
      intermediate state, including states left by injected faults;
    - {b lookup equivalence} — seeded packet probes, sampled to hit pool
      rules: the TCAM answer ({!Fr_switch.Agent.lookup}, highest address)
      must name the same rule as the priority-sorted linear scan
      ({!Fr_switch.Agent.semantic_lookup});
    - {b store agreement} — agents whose accept histories are identical
      must hold identical [(id, action)] stores;
    - {b determinism} — when the trace embeds recordings, each scheduler's
      fresh emissions must reproduce them op for op.

    Schedulers are allowed to {e disagree on acceptance} (a capacity
    rejection on one layout is not a bug on another — the "skip on
    Table_full" allowance); they are never allowed to diverge silently.

    Fault injection ({!config.fault_prob}) installs a {!Fr_tcam.Fault}
    plan on the FastRule agents only — their bookkeeping recomputes from
    TCAM truth, so a sequence cut mid-way is a state the oracle can hold
    to the same invariants.  The stateful baselines run fault-free and
    anchor the comparison. *)

type outcome =
  | Applied
  | Rejected of string  (** scheduling/request rejection — allowed skew *)
  | Verify_failed of string  (** shadow table refused the sequence *)
  | Faulted of string  (** injected hardware failure cut the sequence *)

type divergence = {
  event : int;  (** event index; [-1] for end-of-run checks *)
  scheduler : string;  (** offending scheduler (kind name) *)
  detail : string;
}

type config = {
  probes : int;  (** packets sampled per event (default 8) *)
  record : bool;  (** embed each scheduler's emissions in the report trace *)
  sabotage : (string * Fr_sched.Sabotage.mode) list;
      (** mangle these schedulers (by kind name, e.g. ["fr-o"]) — the
          self-test hook behind [conform --break] *)
  fault_prob : float;  (** per-write failure probability, 0 = off *)
  fault_seed : int;  (** offsets the trace seed for the fault streams *)
  max_failures : int;  (** injection budget per agent; [-1] unlimited *)
}

val default_config : config
(** 8 probes, no recording, no sabotage, no faults. *)

type column = {
  scheduler : string;
  applied : int;
  rejected : int;
  verify_failed : int;
  faulted : int;
  crashed : string option;
      (** an exception escaped the agent; it sat out the remaining events *)
}

type report = {
  trace : Trace.t;  (** input trace, with recordings when [record] *)
  columns : column list;  (** per scheduler, trace order *)
  probes_run : int;  (** total packets probed (per agent) *)
  divergences : divergence list;
  checked_ops : int;  (** ops through {!Fr_sched.Check.sequence}, summed *)
  snapshots_checked : int;
      (** published mid-cascade images held to the pre-or-post law, summed
          over lanes and events *)
  verify_ms : float;  (** wall-clock inside the check, summed *)
}

val clean : report -> bool
(** No divergences and no crashed agent. *)

val run : ?config:config -> Trace.t -> report
(** Replay the trace through all five schedulers and cross-examine.
    Deterministic: equal traces and configs yield equal reports (up to
    the wall-clock fields).

    Besides the classic checks (dependency invariant after every event,
    TCAM-vs-linear lookup equivalence, store agreement by accept history,
    emission determinism), the oracle captures {e every} snapshot image an
    agent publishes while a flow-mod cascades ({!Fr_switch.Agent.set_publish_observer})
    and holds each to the pre-or-post law: over the event's probe packets,
    the image's answer vector must equal the semantic table's before the
    flow-mod or after it — never a mix of the two, never a third state.
    (The one sanctioned exception: a [Set_action] on a dead row relocates
    via Remove + Add, whose mid-flight snapshots legitimately miss the
    rule.)  This is the proof that wait-free readers of the published
    image can never observe a half-applied cascade. *)

val pp_report : Format.formatter -> report -> unit
(** The verdict, a function of the trace and the config alone: two runs
    of one build print it byte for byte alike. *)

val pp_timing : Format.formatter -> report -> unit
(** The wall-clock verification rate (checked ops per second), kept out
    of {!pp_report} so the verdict stays diffable. *)

(** {1 Service-level fault lanes}

    The durability and degradation counterparts of {!run}: per scheduler
    kind, the trace is driven through a {!Fr_ctrl.Service}, flushed every
    [batch] events, while one {!fault} is injected; the faulted service
    is then held to a fault-free reference by its union store image
    (every shard's installed table) and by cross-shard probe lookups.
    The fault value picks the lane:

    - {b [Crash {at; mid_drain}]} — a single-shard {e journaled} service
      is killed after [at] events via {!Fr_ctrl.Service.simulate_crash}
      (with [mid_drain], after the begin markers went durable but before
      any commit) and rebuilt by {!Fr_ctrl.Service.recover} from the
      journal alone.  The recovered state must equal a journal-free
      reference over the {e committed} prefix; after one more flush
      (draining the requeued suffix) it must equal the reference over the
      {e whole} prefix; the recovered agent must pass
      {!Fr_switch.Agent.verify_consistent}, and recovery must report no
      warnings.
    - {b [Slow {shards; shard; ms}]} — a failover-enabled service with a
      persistent latency fault on [shard] (every op succeeds, [ms] late).
      The slow-call breaker quarantines it and new ids divert to healthy
      siblings.  No submit may be shed, no op may fail, and the fault must
      engage ([diverted > 0], otherwise the run is reported vacuous).
    - {b [Stuck {shards; shard; frac}]} — a failover-enabled service with
      a seeded stuck-at-write bank covering [frac] of [shard]'s rows.  The
      firmware discovers the holes through write failures, the retry
      budget absorbs the discovery, the schedulers step over dead rows and
      only the overflow diverts.  At every flush boundary the hardware
      lookup must equal the semantic scan, and no submit may be shed.  A
      lane that never wrote into the bank ([dead_max = 0]) is listed in
      {!service_report.vacuous}.

    [Slow] and [Stuck] then heal the fault and keep flushing until the run
    converges (no diverted ids, no pending work, no dead rows, every
    breaker closed), and hold the result to a never-faulted twin of the
    same shape. *)

type fault = Bundle.fault =
  | Crash of { at : int; mid_drain : bool }
  | Slow of { shards : int; shard : int; ms : float }
  | Stuck of { shards : int; shard : int; frac : float }

type service_lane = {
  sched : string;  (** scheduler kind name *)
  committed : int;  (** crash: events covered by completed flushes *)
  suffix : int;  (** crash: events submitted but uncommitted at the crash *)
  replayed_drains : int;  (** crash *)
  requeued : int;  (** crash *)
  recovered_rules : int;  (** crash: rules in the recovered service *)
  applied_ops : int;  (** slow/stuck: shard telemetry of the faulted run *)
  failed_ops : int;
      (** slow/stuck; under a stuck bank these are the transient failures
          that discover the holes — the discovery cost, not a gate *)
  shed : int;
  diverted : int;  (** ids routed away from their home shard *)
  degraded_diverted : int;
      (** diverts caused by shrunken capacity, not a quarantine *)
  rebalanced : int;  (** ids drained back home after the heal *)
  dead_max : int;  (** stuck: most rows simultaneously condemned *)
  rows_recovered : int;  (** stuck: rows revived by the probe drill *)
  heal_flushes : int;  (** slow/stuck: flushes from heal to convergence *)
}
(** One scheduler's lane.  Counters a fault does not exercise stay [0]. *)

type service_report = {
  fault : fault;  (** a crash point is clamped to the trace length *)
  batch : int;
  source : Trace.t;
  seeded_dead : int;  (** rows in the stuck bank; [0] for other faults *)
  lanes : service_lane list;  (** per scheduler, trace order *)
  vacuous : string list;
      (** schedulers whose stuck-bank lane never wrote into the bank — a
          vacuous certification that is reported, not a divergence *)
  findings : divergence list;  (** [event] is always [-1] *)
  elapsed_ms : float;
}

val service_clean : ?strict:bool -> service_report -> bool
(** No divergences — and, with [strict] (default [false]), no vacuous
    lane. *)

val run_service :
  ?probes:int ->
  ?batch:int ->
  ?domains:int ->
  ?capture:string ->
  fault ->
  Trace.t ->
  service_report
(** Defaults: 8 probes, flush every 4 events.  [domains] is handed to
    every service the oracle builds (reference, faulted run, twin,
    recovery) — with [domains > 1] a clean run is the proof that the
    parallel drain path is observationally equivalent to the sequential
    one.  Crash journals live in (and are cleaned from) a fresh temp
    directory per scheduler — unless [capture] names a directory, in
    which case each diverging kind leaves a {!Bundle} (trace + fault +
    parameters + journal copy) at [capture/<mode>-<kind>] {e before} the
    temp journal is deleted, replayable offline via [conform --replay].
    Deterministic: equal inputs yield equal reports up to [elapsed_ms].
    @raise Invalid_argument if [batch <= 0]; for [Slow] and [Stuck], if
    [shards < 2] or [shard] is out of range; if [ms <= 0]; or if [frac]
    is outside (0, 1). *)

val pp_service_report : Format.formatter -> service_report -> unit
(** The fault line, one line per lane, then the divergences. *)

(** {1 Fleet lanes}

    The fleet-level conformance class.  A {!fleet_case} is a planned
    rollout ({!Fr_net.Plan.t} carries the topology, both policies and
    both stamp sets) plus what the fleet must survive while driving it.
    Per case and per scheduler kind, the oracle builds a full
    {!Fr_net.Fleet} on the old policy — every topology node a complete
    [Fr_ctrl.Service] running that scheduler — executes the plan, and
    hooks the fleet's probe callback, so at {e every} reachable instant
    (the initial state, after each node's flush and retry inside every
    round, after each mid-flush node crash, after each individual
    ingress-stamp flip, forward and rolled back, and at each round
    boundary) it traces seeded pure-region packets hop by hop through
    the live tables ({!Fr_net.Check.consistent}) and demands:

    - {b per-packet consistency} — every trace equals exactly the path
      its (flow, stamped version) configures in the {e original} plan:
      entirely old or entirely new, never a mix;
    - {b waypoint preservation} and {b delivery} — a flow's configured
      waypoint is on every trace, and traces end at the configured egress
      with no drops, loops or rule gaps;
    - {b convergence to the model} — see {!fleet_converged}; a
      completed rollout must also report no failed flow-mod, and a
      [Held] (wedged) or [Crashed] verdict is itself a divergence;
    - {b verdict agreement} — all five schedulers reach the same
      outcome.  Since every settled lane equals the same pure model,
      equal verdicts imply identical settled tables.

    All lanes trace the same packets (same probe PRNG seed), so any
    disagreement is attributable to the scheduler under test.
    Supervision runs on modelled time, so a report is deterministic and
    domain-count-invariant up to {!fleet_report.fleet_ms}. *)

type fleet_case = {
  plan : Fr_net.Plan.t;
  faults : Fr_net.Scenario.fault_schedule;
      (** per-switch crash / slow / stuck faults; [[]] = none *)
  supervision : Fr_net.Fleet.supervision option;
      (** [None] with no faults: the plain (unsupervised) round loop *)
  abort_at : int option;  (** operator abort at this round boundary *)
}

type fleet_lane = {
  kind : string;  (** scheduler kind name *)
  verdict : string;  (** e.g. ["completed"], ["aborted@2-3"], ["held@1"] *)
  rounds_run : int;  (** forward rounds committed *)
  mods_applied : int;  (** flow-mods applied across the fleet *)
  mods_failed : int;
  retried : int;  (** supervised per-node retries *)
  quarantines : int;
  recovered : int;  (** node re-adoptions from their journals *)
  probe_points : int;  (** instants checked for this lane *)
}

type fleet_report = {
  cases : (fleet_case * fleet_lane list) list;
      (** per input case, its lanes in scheduler order *)
  fleet_findings : divergence list;
      (** [event] is the round index ([-1] for settled-state checks);
          [detail] starts with ["case I"] (plus ["(seed S)"] for a
          supervised case) *)
  fleet_ms : float;
}

val fleet_clean : fleet_report -> bool

val fleet_converged :
  Fr_net.Plan.t -> Fr_net.Fleet.t -> Fr_net.Fleet.outcome -> (string, string) result
(** [Ok target] when the fleet's tables and stamps equal the pure model
    ({!Fr_net.Check.Model.of_policy}, then {!Fr_net.Check.Model.rules})
    of the policy its verdict promises: ["new policy"] at the plan's
    post-rollout stamps after [Completed], ["pre-rollout policy"] at its
    pre-rollout stamps after [Aborted].  [Error] says what differs; a
    [Held] or [Crashed] rollout promises no policy. *)

val run_fleet :
  ?samples:int ->
  ?shards:int ->
  ?capacity:int ->
  ?domains:int ->
  fleet_case list ->
  fleet_report
(** Defaults: [samples = 2] packets per stamped flow per probe point, 2
    shards of 64 slots per node.  [domains] feeds both the fleet-level
    node fan-out and every node service.  A case whose schedule crashes
    a node ({!Fr_net.Scenario.has_crash}) runs each lane on a journaled
    fleet in a fresh temp directory (removed afterwards), so the node is
    re-adopted mid-rollout.
    @raise Invalid_argument if a case's old policy does not load into
    the fleet (see {!Fr_net.Fleet.of_policy}). *)

val chaos_cases : ?shards:int -> ?capacity:int -> seed:int -> int -> fleet_case list
(** [chaos_cases ~seed n]: [n] seeded random rollouts (line, ring or
    tree of 3–6 nodes, 4–6 flows, batch 4), case [i] drawn from seed
    [seed + 7919 i], each under a random per-switch fault schedule
    ({!Fr_net.Scenario.chaos_faults}, stuck banks bounded by [shards]
    and [capacity]) with supervision engaged.  Even cases run
    [hold = Wait] with a generous pass budget; odd cases run
    [hold = Abort] with a tight one, so fault escalation triggers real
    compensating rollbacks; every fourth case also aborts at a random
    committed boundary. *)

val fleet_fingerprint : fleet_report -> string
(** Digest of every wall-clock-free field: per case its index, seed
    (the supervision seed), shape, size, faults, hold policy, abort
    boundary and the first lane's verdict and counters, then every
    divergence.  Equal across [domains] settings for equal cases. *)

val pp_fleet_report : Format.formatter -> fleet_report -> unit
(** A one-case report prints its lane table; a larger one prints the
    outcome tally, summed counters and {!fleet_fingerprint}.  Both end
    with the divergences. *)

val fleet_json : fleet_report -> (string * Fr_ctrl.Telemetry.Json.v) list
(** The JSON fields of the same view: [columns] for one case, or
    [outcomes] and [fingerprint]; then [divergences], [clean] and
    [wall_ms]. *)
