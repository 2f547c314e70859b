(** The TCAM cache tier: a bounded {!Fr_ctrl.Service} in front of a
    {!Backing} table.

    {1 Why admission needs closures}

    A TCAM answers with the best match {e it holds}.  If a rule [r] is
    cached while some higher-precedence rule [w] overlapping it is not,
    a packet in the overlap hits [r] in the TCAM and is answered by the
    wrong rule — the miss that would have consulted the backing table
    never happens.  The fix is structural: only ever cache {e admission
    closures} ([r] plus {!Backing.admission_closure} — everything [r]
    transitively depends on), and only ever evict {e eviction closures}
    ([r] plus its cached dependents).  Both keep the cached set closed
    under "depends on", and for a closed set the TCAM's answer provably
    equals the full table's whenever it answers at all:

    if the cache answers [c] but the full table prefers [w], both match
    the packet, so they overlap, so the compiled graph orders [c ->* w];
    closedness puts [w] in the cache, and the TCAM would have preferred
    it — contradiction.

    {1 Update protocol}

    Admissions and evictions are buffered and applied in {e maintenance
    rounds} every [flush_every] accesses, as two service flushes:
    evictions first, then admissions.  Both intermediate states are
    closed — the mid-eviction state is [installed ∩ target], an
    intersection of closed sets — so a probe is safe at {e every} flush
    boundary, which is exactly what the conformance oracle exercises
    (see {!set_probe_hook}).  Within the eviction flush, ops are
    submitted dependents-first ({!Backing.topo_ranks}); admissions
    dependencies-first.

    Capacity is counted in {e logical slots} over the whole service: the
    cached-rule target set never exceeds [slots].  Each shard gets TCAM
    headroom beyond that so the schedulers always have room to move. *)

type t

type phase = Mid_eviction | Settled
(** Where a maintenance round currently stands when the probe hook runs:
    after the eviction flush ([Mid_eviction], only when there were
    evictions) and after the final flush of the round ([Settled]). *)

val create :
  ?kind:Fr_switch.Firmware.algo_kind ->
  ?latency:Fr_tcam.Latency.t ->
  ?domains:int ->
  ?shards:int ->
  ?flush_every:int ->
  ?policy:Policy.kind ->
  slots:int ->
  backing:Backing.t ->
  unit ->
  t
(** Defaults: the service's default scheduler, 1 shard, maintenance
    every 64 accesses, {!Policy.Lru}, [domains] from
    {!Fr_ctrl.Service.default_domains}.  The backing table must outlive
    the tier and must not be mutated while the tier runs (the tier
    caches its topological ranks).
    @raise Invalid_argument if [slots < 1] or [flush_every < 1]. *)

val access : t -> Fr_tern.Header.packet -> [ `Hit of Fr_tern.Rule.t | `Miss of Fr_tern.Rule.t option ]
(** One packet through the tier: TCAM first, backing scan on miss.
    Misses feed the admission policy; every [flush_every] accesses the
    buffered churn is flushed (see the module preamble).  [`Hit r] is
    the cache's answer; [`Miss ans] is the backing table's. *)

val probe : t -> Fr_tern.Header.packet -> [ `Hit of Fr_tern.Rule.t | `Miss of Fr_tern.Rule.t option ]
(** {!access} without consequences: no policy feedback, no admission, no
    hit/miss telemetry, no maintenance.  What the oracle calls. *)

val maintain : t -> unit
(** Force a maintenance round now (no-op when nothing is buffered).
    Call once after the last access so trailing churn reaches the
    hardware. *)

val set_probe_hook : t -> (phase -> unit) -> unit
(** Called at every flush boundary of every maintenance round.  The
    hook may {!probe} freely; it must not {!access} or {!maintain}. *)

(** {1 Observation} *)

val slots : t -> int
val policy : t -> Policy.kind
val backing : t -> Backing.t

val service : t -> Fr_ctrl.Service.t
(** The underlying control-plane service (per-shard telemetry, stats). *)

val cached_count : t -> int
(** Target cached set size (buffered churn included). *)

val installed_count : t -> int
(** Rules physically in the TCAM right now. *)

val cached_ids : t -> Fr_tern.Rule.Id_set.t
(** The target cached set itself — what the closure invariant is stated
    over ([admission_closure id ⊆ cached_ids] for every member). *)

val telemetry : t -> Fr_ctrl.Telemetry.t
(** Tier-level counters: hits, misses, admissions (with closure sizes),
    evictions, skipped admissions, churn per flush, repairs. *)

val rounds : t -> int
(** Maintenance rounds run. *)

val degraded : t -> string option
(** [Some reason] after an unrepairable flush failure (should not happen
    in a fault-free run; the oracle treats it as a divergence). *)
