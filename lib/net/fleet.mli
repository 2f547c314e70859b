(** A fleet: one {!Fr_ctrl.Service} per topology node, plus the rollout
    engine that drives a {!Plan} through them.

    Each switch in the topology is a {e full} control-plane service —
    its own shards, scheduler, TCAM models, journal and breaker
    machinery — so a fleet rollout exercises exactly the single-switch
    stack the rest of the repository proves correct, [n] times over.

    {b Rollout execution.}  {!execute} drives the plan round by round:
    submit every switch's batch, flush the touched services (fanned out
    over {!Fr_exec.Pool.shared} when [domains > 1], joined
    deterministically in node order — per-node journal bytes are
    bit-identical to the sequential path, same story as
    [Service.flush]), then apply the flip round's ingress-stamp changes
    one flow at a time.  With a [probe] callback the flushes run
    sequentially in node order and the callback fires after every
    node's flush and every individual stamp flip — those are precisely
    the reachable intermediate instants the conformance oracle checks.

    {b Supervision.}  With [faults] and/or [supervision], {!execute}
    runs the {!Fr_resil} breaker/backoff machinery one level up: each
    switch gets a per-round modelled deadline, jittered retries and a
    circuit breaker; a node whose control agent crashes is re-adopted
    from its own journal mid-rollout.  All supervision decisions run on
    {e modelled} time (summed drain [hardware_ms] plus the fault
    schedule's ack penalties), never the wall clock, so a supervised
    rollout is deterministic and domain-count-invariant.  When a round
    cannot complete within the [hold_budget], the {!hold} policy either
    parks the rollout (resumable) or aborts it with a compensating
    rollback.

    {b Rollback.}  An aborted rollout drives {!Plan.inverse} over the
    executed prefix: re-install what was uninstalled, re-flip flipped
    ingresses back per-flow-atomically, uninstall what was installed —
    every instant of the rollback is consistent w.r.t. the original
    plan, and the fleet lands byte-identically on the pre-rollout
    policy.  The rollback is journaled ([abort_begin] / [rbegin] /
    [rcommit] / [abort_done]), so a controller crash {e during} the
    rollback also recovers.

    {b Durability.}  A journaled fleet owns a directory with one
    service journal per node plus a rollout log: the old/new policies,
    pre-rollout stamps and batch size are recorded when {!execute}
    starts (the plan itself is recomputed deterministically, never
    stored), and each round is bracketed by begin/commit markers.
    {!recover} rebuilds every node from its own journal, re-derives the
    plan (or the in-flight inverse plan) and the committed-round
    prefix, and {!resume} re-drives the remainder idempotently — mods
    already accounted for (installed, or removed, before the crash) are
    skipped, so a crash between any two journal writes lands back on a
    consistent round boundary. *)

type t

val of_policy :
  ?kind:Fr_switch.Firmware.algo_kind ->
  ?shards:int ->
  ?capacity:int ->
  ?domains:int ->
  ?journal:string ->
  ?version_of:(Policy.flow -> int) ->
  Topo.t ->
  Policy.t ->
  t
(** A fleet with the policy pre-installed at each flow's [version_of]
    version (default all 0) and the stamps set to match.  Per node:
    [shards] (default 2) shards of [capacity] (default 64) TCAM slots.
    [domains] (default {!Fr_ctrl.Service.default_domains}) feeds both
    the fleet-level node fan-out and every node service.  [journal]
    names a fresh directory (one sub-journal per node).
    @raise Invalid_argument if the policy fails {!Policy.check}, the
    journal directory already holds a fleet, or a node's rules do not
    load into its shards (the message names the node, its rule count,
    [shards] and [capacity]). *)

val topo : t -> Topo.t
val kind_name : t -> string
val domains : t -> int
val journaled : t -> bool

val node : t -> int -> Fr_ctrl.Service.t
(** The switch's service.  @raise Invalid_argument out of range. *)

val stamps : t -> (int * int) list
(** Current ingress stamps, flow-id ascending. *)

val stamp : t -> int -> int option

val lookup : t -> int -> Fr_tern.Header.packet -> Fr_tern.Rule.t option
(** Cross-shard lookup winner at one node (highest priority, ties to
    the lower id) — the fleet-level hop function. *)

val rules : t -> int -> Fr_tern.Rule.t list
(** A node's installed rules over all its shards, id-ascending. *)

val checkpoint : t -> unit
(** Checkpoint every node's service journal (compact WALs into rule
    snapshots).  Journaled fleets only (a no-op otherwise). *)

(** {1 Rollouts} *)

type probe = t -> round:int -> where:string -> unit

type crash_mode =
  | Boundary  (** die cleanly between rounds *)
  | Mid_submit
      (** journal the next round's submissions, then die inside the
          flush (per-node begin markers, no commits) *)

type hold =
  | Wait
      (** park the rollout at the failing round's begin marker; the
          journal stays resumable via {!recover}/{!resume} *)
  | Abort  (** compensating rollback to the pre-rollout policy *)

type supervision = {
  deadline_ms : float;
      (** per-node modelled deadline for one flush attempt (summed
          drain [hardware_ms] plus any active ack penalty); [infinity]
          disables timeouts *)
  retries : int;  (** extra attempts per node per supervision pass *)
  breaker_threshold : int;  (** consecutive hard failures to quarantine *)
  breaker_slow_threshold : int;  (** consecutive timeouts to quarantine *)
  breaker_cooldown : int;  (** skipped passes before a half-open probe *)
  hold : hold;  (** what to do when [hold_budget] passes are exhausted *)
  hold_budget : int;  (** supervision passes per round before [hold] *)
  sup_seed : int;  (** seeds the per-node backoff jitter streams *)
}

val default_supervision : supervision
(** No deadline, 2 retries, breaker 2/2 with cooldown 1, [Wait] after 16
    passes, seed 97.  Retry backoff is always {!Fr_resil.Backoff}'s
    default (1→64 ms, factor 2, jitter 0.2). *)

type outcome =
  | Completed
  | Crashed  (** whole-controller crash drill ([stop_after_rounds]) *)
  | Held of int  (** parked at this round under [hold = Wait] *)
  | Aborted of { at_round : int; rolled_back : int }
      (** aborted at [at_round]; [rolled_back] compensating rounds
          committed — the fleet is back on the pre-rollout policy *)

val outcome_to_string : outcome -> string
(** ["completed"], ["crashed"], ["held@K"] or ["aborted@K-R"] ([R]
    compensating rounds committed). *)

type round_stat = {
  r_index : int;
  r_kind : Plan.kind;
  r_switches : int;
  r_mods : int;
  r_wall_ms : float;
}

type report = {
  completed : bool;  (** [outcome = Completed] *)
  outcome : outcome;
  rounds_run : int;  (** forward rounds committed by this call *)
  applied : int;
  failed : int;  (** unresolved mod failures (later successes clear) *)
  retried : int;  (** supervised per-node retry attempts *)
  quarantines : int;  (** breaker openings across nodes *)
  recovered : int;  (** node re-adoptions from their journals *)
  backoff_ms : float;  (** summed modelled backoff delay *)
  wall_ms : float;
  per_round : round_stat list;
      (** forward then (after an abort) compensating rounds *)
}

val execute :
  ?probe:probe ->
  ?stop_after_rounds:int ->
  ?stop_in_rollback:int ->
  ?crash_mode:crash_mode ->
  ?faults:Scenario.fault_schedule ->
  ?supervision:supervision ->
  ?abort_after_rounds:int ->
  t ->
  Plan.t ->
  report
(** Drive the plan to completion — or crash after [stop_after_rounds]
    committed rounds, or abort (operator-initiated) at the
    [abort_after_rounds] boundary and roll back.  Flip rounds update
    {!stamps} as they run.

    [faults] injects the schedule's per-switch crash / slow / stuck
    faults at their rounds; providing [faults] or [supervision] engages
    the supervised (sequential, modelled-time) round loop.  Crash
    faults and crash drills need a journaled fleet; after a
    whole-controller crash drill ([stop_after_rounds] /
    [stop_in_rollback], which stops the controller after that many
    {e compensating} rounds of an abort's rollback) the fleet must not
    be used — {!recover} from its directory instead.  At every other
    exit, including [Held] and [Aborted], crashed {e nodes} have been
    re-adopted and the fleet remains usable.
    @raise Invalid_argument if the plan was built for a different
    topology, a crash is requested without a journal, a stuck fault
    names a shard or row the node does not have, both
    [stop_after_rounds] and [abort_after_rounds] are given, or the
    fleet has already crashed. *)

(** {1 Crash recovery} *)

type recovery = {
  fleet : t;
  plan : Plan.t option;
      (** the interrupted rollout re-derived — the {e inverse} plan
          when the crash hit mid-rollback ([aborting]) *)
  next_round : int;  (** first round not committed before the crash *)
  aborting : bool;  (** the interrupted work is a compensating rollback *)
  replayed_drains : int;
  replayed_mods : int;
  requeued : int;
  warnings : string list;
}

val recover :
  ?domains:int -> journal:string -> unit -> (recovery, string) result
(** Rebuild a fleet from its journal directory alone: every node via
    {!Fr_ctrl.Service.recover}, stamps from the rollout log's committed
    (forward, then compensating) flips over its recorded baseline.
    [plan = None] when no rollout was in flight — including after a
    completed rollback ([abort_done]), which lands on the pre-rollout
    policy and stamps. *)

val resume : ?probe:probe -> recovery -> report
(** Finish an interrupted rollout (or rollback, when [aborting]): flush
    each node's requeued intent, then re-drive every uncommitted round,
    skipping mods the crash-era journals already accounted for.  A
    no-op ([completed = true], [rounds_run = 0]) when there is nothing
    to resume. *)

val pp_report : Format.formatter -> report -> unit

val report_json : report -> (string * Fr_ctrl.Telemetry.Json.v) list
(** The report's JSON fields: [completed], [outcome], the counters,
    [wall_ms] and [per_round] (each round's [index], [kind], [switches],
    [mods] and [wall_ms]).  The two [wall_ms] keys are the only
    wall-clock ones: the rest is a function of the plan, the seed and
    the faults, whatever the domain count. *)

(** {1 Offline journal inspection} *)

type rollout_stat = {
  rs_nodes : int;  (** topology nodes (per-node service journals) *)
  rs_stamped : int;  (** flows stamped in the recorded baseline *)
  rs_state : string;
      (** ["idle"], ["in-flight"], ["rolling-back"], ["completed"] or
          ["rolled-back"] *)
  rs_batch : int;  (** [0] when idle *)
  rs_old_flows : int;
  rs_new_flows : int;
  rs_begun : int;  (** forward rounds with a begin marker *)
  rs_committed : int;
  rs_rb_begun : int;  (** compensating rounds with an rbegin marker *)
  rs_rb_committed : int;
  rs_last_boundary : string;
      (** human description of the last consistent boundary the journal
          proves — where {!recover}/{!resume} would pick up *)
}

val is_fleet_journal : string -> bool
(** Does the directory hold fleet metadata ([fleet.meta])? *)

val rollout_stat : journal:string -> unit -> (rollout_stat, string) result
(** Read-only summary of a fleet journal tree's rollout log.  Nothing is
    recovered or modified. *)
