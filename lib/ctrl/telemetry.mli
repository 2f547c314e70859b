(** Per-shard control-plane telemetry.

    Every shard meters the quantities an operator (or a later
    load-balancing layer) needs to see where the firmware bottleneck
    lives: how much submitted work was folded away before it reached the
    scheduler, how long each drain spent in the two clocks the paper
    separates (firmware computation vs modelled TCAM write time), how
    many hardware ops and movements each drain cost, and how deep the
    queue ran.  Counters are plain monotonic ints; each per-drain
    quantity is a {!Fr_switch.Measure.Hist}: count, sum, min and max are
    exact, percentiles are within a 2^(1/8) bucket of the exact value,
    and memory stays the same however long the shard runs. *)

(** A minimal JSON value — enough for machine-readable dumps without an
    external dependency.  Serialisation is deterministic (fields print in
    construction order). *)
module Json : sig
  type v =
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of v list
    | Obj of (string * v) list

  val to_string : v -> string
  (** Compact, valid JSON ([Float nan/inf] print as [null]). *)

  val of_summary : Fr_switch.Measure.summary -> v
  (** [{count, mean, min, max, p50, p95, p99, p999}]. *)
end

type t

val create : ?cache:bool -> unit -> t
(** [~cache:true] (default [false]) is the cache tier's telemetry: only it
    keeps the {!cache_closure} and {!cache_churn} distributions, which
    stay empty elsewhere. *)

(** {1 Recording (called by the shard)} *)

val record_submitted : t -> unit
val record_coalesced : t -> int -> unit
val record_rejected : t -> int -> unit

val record_drain :
  t ->
  queue_depth:int ->
  applied:int ->
  failed:int ->
  firmware_ms:float ->
  hardware_ms:float ->
  tcam_ops:int ->
  moves:int ->
  wall_ms:float ->
  unit
(** One drain's worth of accounting; the [*_ms] / op figures feed the
    per-drain histograms, the rest the counters. *)

(** {1 Recording (called by the supervisor, [Fr_resil] via {!Service})} *)

val record_retry : t -> ops:int -> backoff_ms:float -> unit
(** One retry round: how many transient casualties were re-driven and the
    modelled backoff delay charged before the round. *)

val record_shed : t -> unit
(** One submit rejected [Overloaded] while the shard was quarantined. *)

val record_breaker_open : t -> unit
val record_checkpoint : t -> unit
val set_breaker_state : t -> string -> unit

val record_diverted : t -> unit
(** A new rule id landed on this shard because its static home was
    quarantined (failover routing). *)

val record_rebalanced : t -> unit
(** A diverted id was drained back to this shard — its static home —
    after the home's breaker closed. *)

val record_restart : t -> unit
(** This shard absorbed a whole-shard restart fault and was re-adopted
    from its journal. *)

val record_slow_drain : t -> unit
(** A drain finished damage-free but over the supervisor's slow-call
    latency threshold. *)

val set_slow_threshold : t -> float -> unit
(** The per-op slow-call bound (ms) the supervisor judged the last drain
    against — a gauge, not a counter; [infinity] while the policy is off
    or the adaptive threshold is still warming up. *)

val set_dead_rows : t -> int -> unit
(** Gauge: rows this shard's {!Fr_tcam.Deadmap} condemns right now —
    refreshed by the service at the end of every flush. *)

val record_degraded_divert : t -> unit
(** A new rule id landed on this shard because its static home's
    effective capacity (capacity minus dead rows) was exhausted — the
    partial-degradation divert, also counted in {!diverted}. *)

val record_heal_probe : t -> probed:int -> recovered:int -> unit
(** One probe-drill pass over this shard's dead rows: [probed] rows were
    re-tested, [recovered] of them revived. *)

(** {1 Recording (called by the cache tier, [Fr_cache.Tier])}

    A tier keeps its own [Telemetry.t] for traffic-level accounting —
    separate from the per-shard instances, which keep metering the
    drains the tier's flushes cause. *)

val record_cache_hit : t -> unit
val record_cache_miss : t -> unit

val record_cache_admission : t -> rules:int -> unit
(** One admission of a whole closure: [rules] entries entered the
    target set; the closure size feeds {!cache_closure}. *)

val record_cache_eviction : t -> rules:int -> unit
(** One eviction decision: [rules] entries (victim groups, closed under
    dependents) left the target set. *)

val record_cache_admit_skip : t -> unit
(** An admission refused: the closure would not fit, or every victim
    group was as hot as the candidate (anti-thrash). *)

val record_cache_repair : t -> unit
(** A flush came back with casualties and the tier ran a repair pass. *)

val record_cache_flush : t -> inserts:int -> deletes:int -> unit
(** One maintenance round reached the hardware; the op counts feed
    {!cache_churn}. *)

(** {1 Reading} *)

val submitted : t -> int
val coalesced : t -> int
val rejected : t -> int
val applied : t -> int
val failed : t -> int
val drains : t -> int
val tcam_ops : t -> int
val moves : t -> int
val firmware_ms_total : t -> float
val hardware_ms_total : t -> float
val queue_depth_max : t -> int
val retries : t -> int
val retried_ops : t -> int
val backoff_ms_total : t -> float
val shed : t -> int
val breaker_opens : t -> int
val checkpoints : t -> int
val diverted : t -> int
val rebalanced : t -> int
val restarts : t -> int
val slow_drains : t -> int

val slow_threshold_ms : t -> float
(** Last value passed to {!set_slow_threshold}; [infinity] initially. *)

val dead_rows : t -> int
(** Last value passed to {!set_dead_rows}; [0] initially. *)

val degraded_diverted : t -> int
val heal_probes : t -> int
val rows_recovered : t -> int

val breaker_state : t -> string
(** Current breaker state name ("closed" when no supervisor runs). *)

val firmware_ms : t -> Fr_switch.Measure.summary
(** Per-drain firmware milliseconds. *)

val hardware_ms : t -> Fr_switch.Measure.summary
(** Per-drain modelled TCAM milliseconds. *)

val wall_ms : t -> Fr_switch.Measure.summary
(** Per-drain wall-clock milliseconds (firmware + simulator overhead). *)

val drain_ops : t -> Fr_switch.Measure.summary
(** Per-drain TCAM op counts (the paper's movement metric, per drain). *)

val cache_hits : t -> int
val cache_misses : t -> int

val cache_hit_rate : t -> float
(** Hits over (hits + misses); [0.] before any traffic. *)

val cache_admitted : t -> int
val cache_evicted : t -> int
val cache_admit_skips : t -> int
val cache_repairs : t -> int
val cache_flushes : t -> int

val cache_closure : t -> Fr_switch.Measure.summary
(** Admission-closure sizes (rules per admission). *)

val cache_churn : t -> Fr_switch.Measure.summary
(** Inserts + deletes per maintenance flush. *)

val hw_per_op_ms : t -> Fr_switch.Measure.summary
(** Modelled hardware milliseconds per TCAM op, one sample per non-empty
    drain.  This is the shard's own latency distribution: the adaptive
    slow-call threshold is its p99 times the service's [slow_factor].
    Modelled time, so the summary is deterministic for a given op
    stream. *)

val pp : Format.formatter -> t -> unit
(** The plain-text dump: counters one per line, then the two-clock
    summaries and the non-empty buckets of the wall-clock drain latency. *)

val to_json : t -> Json.v
(** Everything above as one object (see doc/CTRL.md for the schema). *)
