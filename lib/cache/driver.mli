(** Zipf-driven cache runs and the cache conformance oracle.

    A run wires the pieces together: a ClassBench-style table becomes
    the {!Backing}, a {!Fr_workload.Zipf.Flows} universe streams packets
    through a {!Tier}, and — in oracle mode — every answer and every
    flush boundary is checked against the full-table semantic scan.
    The check is total: a divergence is impossible to miss because a
    cached hit must name {e exactly} the rule the backing scan names,
    and probes also run mid-eviction (see {!Tier.set_probe_hook}).

    {!run_all} is the acceptance gate: the same spec replayed over all
    five schedulers must come back divergence-free. *)

type spec = {
  kind : Fr_workload.Dataset.kind;
  n : int;  (** backing-table rules *)
  seed : int;
  flows : int;  (** flow-universe size (lazy; millions are fine) *)
  skew : float;  (** Zipf exponent; 0 = uniform *)
  accesses : int;  (** packets to stream *)
  slots : int;  (** cache capacity (logical rules) *)
  shards : int;
  flush_every : int;  (** accesses per maintenance round *)
  policy : Policy.kind;
}

val default_spec : spec
(** ACL4, 800 rules, seed 42, 100k flows at skew 1.1, 4000 accesses,
    128 slots, 2 shards, maintenance every 64, LRU. *)

type divergence = {
  at : int;  (** access index, or the probe's flush boundary *)
  where : string;  (** ["access"], ["probe:mid-eviction"], ... *)
  expected : string;
  got : string;
}

type result = {
  algo : Fr_switch.Firmware.algo_kind;
  spec : spec;
  domains : int;  (** flush executors the tier's service actually used *)
  hits : int;
  misses : int;
  hit_rate : float;
  admitted : int;  (** rules installed by admissions (closures included) *)
  evicted : int;
  admit_skipped : int;
  repairs : int;
  rounds : int;  (** maintenance rounds *)
  probes : int;  (** oracle probes run (0 outside oracle mode) *)
  cached : int;  (** target cached rules at the end *)
  installed : int;
  tcam_ops : int;  (** hardware writes+erases spent on cache churn *)
  hardware_ms : float;  (** modelled TCAM time for that churn *)
  hw_ms_per_access : float;
  hw_ms_per_update : float;  (** hardware cost per admitted+evicted rule *)
  closure_p99 : float;  (** p99 admission-closure size *)
  churn_per_flush : float;  (** mean inserts+deletes per maintenance *)
  wall_ms : float;
  divergences : divergence list;  (** empty = conformant *)
}

val run :
  ?algo:Fr_switch.Firmware.algo_kind ->
  ?domains:int ->
  ?check:bool ->
  ?probes:int ->
  spec ->
  result
(** One tier, one scheduler, one seeded stream.  [check] (default true)
    verifies every hit against the backing scan as it happens; [probes]
    (default 8, oracle mode only) is how many extra packets are probed
    at each flush boundary, half re-drawn from the flow universe and
    half uniformly random.  [check:false] ([cache --no-check]) runs the
    tier with no oracle overhead. *)

val run_all :
  ?domains:int -> ?probes:int -> spec -> result list
(** {!run} with [check:true] for every scheduler in
    {!Fr_switch.Firmware.standard_algos} — the conformance sweep. *)

val pp_result : Format.formatter -> result -> unit
(** Two summary lines: traffic/churn and cost/threshold. *)

val result_json : result -> Fr_ctrl.Telemetry.Json.v
