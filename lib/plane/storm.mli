(** The lookup-under-update storm driver: LGEN/SUT split on domains.

    One or more {e load-generator} reader domains drive sustained seeded
    Zipf traffic (reusing {!Fr_workload.Zipf.Flows}) against shard 0's
    published snapshots, while the churn driver ({!Fr_ctrl.Churn}) — the
    {e system under test} — flushes an update storm through every shard
    on {!Fr_exec.Pool} executors.  Readers are wait-free: each lookup is
    one atomic load of the shard's current {!Fr_tcam.Image.t} plus a
    descending scan of that immutable snapshot, so the writers never
    block them and they never see a half-applied cascade step.

    Each reader times every lookup with the monotonic clock into private
    {!Fr_switch.Measure.Hist}s — one for the TCAM-emulation path
    ([Image.lookup]) and one for the {!Backend} software engine, which is
    recompiled from a fresh snapshot every [rebuild_every] lookups and
    cross-validated on every packet against [Image.lookup] over the
    backend's {e own} image (always comparable, even mid-cascade;
    [disagree] must be 0).  After the storm the readers join and their
    tallies merge into the agent's flow-stats counters via
    {!Fr_switch.Agent.account_hits}.

    The storm side (applied/failed/flushes) is a pure function of
    [seed] (and bit-identical across [domains] — {!Fr_ctrl.Service.flush}'s
    guarantee), so a recorded run reproduces; the lookup side (latencies,
    counts) is wall-clock and scheduling dependent by nature and is
    reported under separate JSON keys the round-trip test strips.

    Caveat: on a single-core host the reader and writer domains timeshare,
    so p99 includes scheduler preemption — see doc/PLANE.md. *)

type spec = {
  kind : Fr_workload.Dataset.kind;
  n : int;  (** initial rules preloaded before the storm *)
  seed : int;
  flows : int;  (** distinct Zipf flows in the reader universe *)
  skew : float;
  ops : int;  (** storm flow-mods *)
  shards : int;
  capacity : int;  (** TCAM slots per shard *)
  batch : int;  (** ops per flush window *)
  readers : int;  (** LGEN domains *)
  min_lookups : int;
      (** per-reader floor: readers keep measuring until the storm ends
          {e and} they have at least this many samples, so tiny CI runs
          still produce meaningful quantiles *)
  rebuild_every : int;  (** software-backend recompile period, in lookups *)
}

val default_spec : spec

type result = {
  spec : spec;
  algo : Fr_switch.Firmware.algo_kind;
  domains : int;  (** flush executors actually used *)
  applied : int;
  failed : int;
  flushes : int;
  storm_wall_ms : float;
  tcam_lat : Fr_switch.Measure.summary;
      (** [Image.lookup] — the TCAM-emulation read path, in ns *)
  soft_lat : Fr_switch.Measure.summary;
      (** {!Backend.lookup} — the software engine, in ns *)
  lookups : int;
  hits : int;
  misses : int;
  retired_hits : int;
      (** snapshot-served packets whose rule was gone by merge time *)
  epochs_seen : int;  (** distinct published epochs readers observed *)
  soft_rebuilds : int;
  agree : int;
  disagree : int;  (** backend vs snapshot cross-validation; must be 0 *)
}

val run :
  ?algo:Fr_switch.Firmware.algo_kind -> ?domains:int -> spec -> result
(** One storm.  [domains] defaults to {!Fr_ctrl.Service.default_domains}
    (the FASTRULE_DOMAINS env var).
    @raise Invalid_argument on a non-positive [readers], [min_lookups]
    or [rebuild_every], or an initial policy that does not fit. *)

val run_all : ?domains:int -> spec -> result list
(** {!run} once per standard scheduler (BIT back-end), same spec. *)

val pp_result : Format.formatter -> result -> unit

val result_json : result -> Fr_ctrl.Telemetry.Json.v
(** Deterministic fields at the top level (spec echo, seed, domains,
    applied/failed/flushes); wall-clock-dependent measurements nested
    under ["storm_wall_ms"], ["traffic"], ["tcam_ns"] and ["soft_ns"] —
    strip those four keys and the dump is reproducible from the seed. *)

val volatile_keys : string list
(** The four wall-clock-dependent keys above, for round-trip tests. *)
