module Measure = Fr_switch.Measure

module Json = struct
  type v =
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of v list
    | Obj of (string * v) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec write buf = function
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%g" f)
        else Buffer.add_string buf "null"
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List vs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            write buf v)
          vs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            write buf (Str k);
            Buffer.add_char buf ':';
            write buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    write buf v;
    Buffer.contents buf

  let of_summary (s : Measure.summary) =
    Obj
      [
        ("count", Int s.Measure.count);
        ("mean", Float s.Measure.mean);
        ("min", Float s.Measure.min);
        ("max", Float s.Measure.max);
        ("p50", Float s.Measure.p50);
        ("p95", Float s.Measure.p95);
        ("p99", Float s.Measure.p99);
        ("p999", Float s.Measure.p999);
      ]
end

type t = {
  mutable submitted : int;
  mutable coalesced : int;
  mutable rejected : int;
  mutable applied : int;
  mutable failed : int;
  mutable drains : int;
  mutable tcam_ops : int;
  mutable moves : int;
  mutable depth_max : int;
  (* supervision (Fr_resil) *)
  mutable retries : int;  (* retry rounds run *)
  mutable retried_ops : int;  (* ops re-driven by those rounds *)
  mutable backoff_ms : float;  (* modelled backoff delay accrued *)
  mutable shed : int;  (* submits rejected Overloaded *)
  mutable breaker_opens : int;
  mutable checkpoints : int;
  mutable breaker_state : string;  (* current, for dumps *)
  (* failover / fault domains *)
  mutable diverted : int;  (* new ids routed here away from a sick home *)
  mutable rebalanced : int;  (* diverted ids drained back to this home *)
  mutable restarts : int;  (* whole-shard restart faults absorbed *)
  mutable slow_drains : int;  (* drains over the slow-call threshold *)
  mutable slow_threshold_ms : float;
      (* per-op bound the last drain was judged against (infinity: slow
         policy off or still warming up) *)
  (* degraded hardware (dead rows) *)
  mutable dead_rows : int;  (* gauge: rows the dead map condemns now *)
  mutable degraded_diverted : int;
      (* diverts caused by a degraded home's shrunken capacity (also
         counted in [diverted]) *)
  mutable heal_probes : int;  (* dead rows re-tested by the probe drill *)
  mutable rows_recovered : int;  (* probes that revived a row *)
  (* cache tier (Fr_cache) *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_admitted : int;  (* rules installed, closures included *)
  mutable cache_evicted : int;
  mutable cache_admit_skips : int;  (* admissions refused (no cold victims) *)
  mutable cache_repairs : int;  (* flush-failure repair passes *)
  mutable cache_flushes : int;  (* maintenance rounds flushed *)
  fw : Measure.Hist.t;  (* per drain *)
  hw : Measure.Hist.t;
  wall : Measure.Hist.t;
  ops : Measure.Hist.t;
  hw_op : Measure.Hist.t;
      (* modelled hardware ms per TCAM op, one sample per non-empty drain
         — the latency histogram the adaptive slow-call threshold reads *)
  cache_dists : cache_dists option;  (* only on the cache tier's telemetry *)
}

and cache_dists = {
  closure : Measure.Hist.t;  (* admission-closure sizes, one per admission *)
  churn : Measure.Hist.t;  (* inserts + deletes per maintenance flush *)
}

let create ?(cache = false) () =
  {
    submitted = 0;
    coalesced = 0;
    rejected = 0;
    applied = 0;
    failed = 0;
    drains = 0;
    tcam_ops = 0;
    moves = 0;
    depth_max = 0;
    retries = 0;
    retried_ops = 0;
    backoff_ms = 0.0;
    shed = 0;
    breaker_opens = 0;
    checkpoints = 0;
    breaker_state = "closed";
    diverted = 0;
    rebalanced = 0;
    restarts = 0;
    slow_drains = 0;
    slow_threshold_ms = infinity;
    dead_rows = 0;
    degraded_diverted = 0;
    heal_probes = 0;
    rows_recovered = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_admitted = 0;
    cache_evicted = 0;
    cache_admit_skips = 0;
    cache_repairs = 0;
    cache_flushes = 0;
    fw = Measure.Hist.create ();
    hw = Measure.Hist.create ();
    wall = Measure.Hist.create ();
    ops = Measure.Hist.create ();
    hw_op = Measure.Hist.create ();
    cache_dists =
      (if cache then
         Some { closure = Measure.Hist.create (); churn = Measure.Hist.create () }
       else None);
  }

let record_submitted t = t.submitted <- t.submitted + 1

let record_retry t ~ops ~backoff_ms =
  t.retries <- t.retries + 1;
  t.retried_ops <- t.retried_ops + ops;
  t.backoff_ms <- t.backoff_ms +. backoff_ms

let record_shed t = t.shed <- t.shed + 1
let record_breaker_open t = t.breaker_opens <- t.breaker_opens + 1
let record_checkpoint t = t.checkpoints <- t.checkpoints + 1
let record_diverted t = t.diverted <- t.diverted + 1
let record_rebalanced t = t.rebalanced <- t.rebalanced + 1
let record_restart t = t.restarts <- t.restarts + 1
let record_slow_drain t = t.slow_drains <- t.slow_drains + 1
let set_slow_threshold t ms = t.slow_threshold_ms <- ms
let set_dead_rows t n = t.dead_rows <- n
let record_degraded_divert t = t.degraded_diverted <- t.degraded_diverted + 1

let record_heal_probe t ~probed ~recovered =
  t.heal_probes <- t.heal_probes + probed;
  t.rows_recovered <- t.rows_recovered + recovered
let set_breaker_state t s = t.breaker_state <- s
let record_coalesced t n = t.coalesced <- t.coalesced + n
let record_cache_hit t = t.cache_hits <- t.cache_hits + 1
let record_cache_miss t = t.cache_misses <- t.cache_misses + 1

let record_cache_admission t ~rules =
  t.cache_admitted <- t.cache_admitted + rules;
  Option.iter (fun c -> Measure.Hist.record c.closure (float_of_int rules)) t.cache_dists

let record_cache_eviction t ~rules = t.cache_evicted <- t.cache_evicted + rules
let record_cache_admit_skip t = t.cache_admit_skips <- t.cache_admit_skips + 1
let record_cache_repair t = t.cache_repairs <- t.cache_repairs + 1

let record_cache_flush t ~inserts ~deletes =
  t.cache_flushes <- t.cache_flushes + 1;
  Option.iter
    (fun c -> Measure.Hist.record c.churn (float_of_int (inserts + deletes)))
    t.cache_dists
let record_rejected t n = t.rejected <- t.rejected + n

let record_drain t ~queue_depth ~applied ~failed ~firmware_ms ~hardware_ms
    ~tcam_ops ~moves ~wall_ms =
  t.drains <- t.drains + 1;
  t.applied <- t.applied + applied;
  t.failed <- t.failed + failed;
  t.tcam_ops <- t.tcam_ops + tcam_ops;
  t.moves <- t.moves + moves;
  if queue_depth > t.depth_max then t.depth_max <- queue_depth;
  Measure.Hist.record t.fw firmware_ms;
  Measure.Hist.record t.hw hardware_ms;
  Measure.Hist.record t.wall wall_ms;
  Measure.Hist.record t.ops (float_of_int tcam_ops);
  if tcam_ops > 0 then
    Measure.Hist.record t.hw_op (hardware_ms /. float_of_int tcam_ops)

let submitted t = t.submitted
let coalesced t = t.coalesced
let rejected t = t.rejected
let applied t = t.applied
let failed t = t.failed
let drains t = t.drains
let tcam_ops t = t.tcam_ops
let moves t = t.moves
let firmware_ms_total t = Measure.Hist.total t.fw
let hardware_ms_total t = Measure.Hist.total t.hw
let retries t = t.retries
let retried_ops t = t.retried_ops
let backoff_ms_total t = t.backoff_ms
let shed t = t.shed
let breaker_opens t = t.breaker_opens
let checkpoints t = t.checkpoints
let breaker_state t = t.breaker_state
let diverted t = t.diverted
let rebalanced t = t.rebalanced
let restarts t = t.restarts
let slow_drains t = t.slow_drains
let slow_threshold_ms t = t.slow_threshold_ms
let dead_rows t = t.dead_rows
let degraded_diverted t = t.degraded_diverted
let rows_recovered t = t.rows_recovered
let firmware_ms t = Measure.Hist.summary t.fw
let hardware_ms t = Measure.Hist.summary t.hw
let wall_ms t = Measure.Hist.summary t.wall
let drain_ops t = Measure.Hist.summary t.ops
let hw_per_op_ms t = Measure.Hist.summary t.hw_op
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let cache_admitted t = t.cache_admitted
let cache_evicted t = t.cache_evicted
let cache_admit_skips t = t.cache_admit_skips
let cache_repairs t = t.cache_repairs

let cache_hit_rate t =
  let total = t.cache_hits + t.cache_misses in
  if total = 0 then 0.0 else float_of_int t.cache_hits /. float_of_int total

let cache_dist t f =
  match t.cache_dists with
  | Some c -> Measure.Hist.summary (f c)
  | None -> Measure.summarize [||]

let cache_closure t = cache_dist t (fun c -> c.closure)
let cache_churn t = cache_dist t (fun c -> c.churn)

let pp_buckets ppf h =
  List.iter
    (fun (upper, n) -> Format.fprintf ppf "    < %8.3f  %d@." upper n)
    (Measure.Hist.nonempty_buckets h)

let pp ppf t =
  Format.fprintf ppf
    "submitted %d  coalesced %d  rejected %d  applied %d  failed %d@."
    t.submitted t.coalesced t.rejected t.applied t.failed;
  Format.fprintf ppf
    "drains %d  tcam-ops %d  moves %d  queue-depth-max %d@."
    t.drains t.tcam_ops t.moves t.depth_max;
  if
    t.retries > 0 || t.shed > 0 || t.breaker_opens > 0 || t.checkpoints > 0
    || t.breaker_state <> "closed"
  then
    Format.fprintf ppf
      "retries %d (%d ops, %.1f ms backoff)  shed %d  breaker %s (opened %d)  checkpoints %d@."
      t.retries t.retried_ops t.backoff_ms t.shed t.breaker_state
      t.breaker_opens t.checkpoints;
  if t.diverted > 0 || t.rebalanced > 0 || t.restarts > 0 || t.slow_drains > 0
  then
    Format.fprintf ppf
      "diverted %d  rebalanced %d  restarts %d  slow-drains %d@." t.diverted
      t.rebalanced t.restarts t.slow_drains;
  if Float.is_finite t.slow_threshold_ms then
    Format.fprintf ppf "slow-call threshold (ms/op): %.3f@." t.slow_threshold_ms;
  if t.dead_rows > 0 || t.heal_probes > 0 || t.degraded_diverted > 0 then
    Format.fprintf ppf
      "dead-rows %d  degraded-diverted %d  heal-probes %d  recovered %d@."
      t.dead_rows t.degraded_diverted t.heal_probes t.rows_recovered;
  if t.cache_hits > 0 || t.cache_misses > 0 then begin
    Format.fprintf ppf
      "cache: hits %d  misses %d (%.1f%% hit)  admitted %d  evicted %d  \
       skipped %d  repairs %d  flushes %d@."
      t.cache_hits t.cache_misses
      (100.0 *. cache_hit_rate t)
      t.cache_admitted t.cache_evicted t.cache_admit_skips t.cache_repairs
      t.cache_flushes;
    Format.fprintf ppf "admission closure (rules): %a@." Measure.pp_summary
      (cache_closure t);
    Format.fprintf ppf "churn/flush (ops): %a@." Measure.pp_summary
      (cache_churn t)
  end;
  Format.fprintf ppf "firmware/drain (ms): %a@." Measure.pp_summary
    (firmware_ms t);
  Format.fprintf ppf "hardware/drain (ms): %a@." Measure.pp_summary
    (hardware_ms t);
  Format.fprintf ppf "drain latency histogram (wall ms):@.%a" pp_buckets
    t.wall

let buckets_json h =
  let bs = Measure.Hist.nonempty_buckets h in
  Json.Obj
    [
      ("bounds", Json.List (List.map (fun (upper, _) -> Json.Float upper) bs));
      ("counts", Json.List (List.map (fun (_, n) -> Json.Int n) bs));
    ]

let to_json t =
  Json.Obj
    [
      ("submitted", Json.Int t.submitted);
      ("coalesced", Json.Int t.coalesced);
      ("rejected", Json.Int t.rejected);
      ("applied", Json.Int t.applied);
      ("failed", Json.Int t.failed);
      ("drains", Json.Int t.drains);
      ("tcam_ops", Json.Int t.tcam_ops);
      ("moves", Json.Int t.moves);
      ("queue_depth_max", Json.Int t.depth_max);
      ("retries", Json.Int t.retries);
      ("retried_ops", Json.Int t.retried_ops);
      ("backoff_ms_total", Json.Float t.backoff_ms);
      ("shed", Json.Int t.shed);
      ("breaker_opens", Json.Int t.breaker_opens);
      ("breaker_state", Json.Str t.breaker_state);
      ("checkpoints", Json.Int t.checkpoints);
      ("diverted", Json.Int t.diverted);
      ("rebalanced", Json.Int t.rebalanced);
      ("restarts", Json.Int t.restarts);
      ("slow_drains", Json.Int t.slow_drains);
      ("slow_threshold_ms", Json.Float t.slow_threshold_ms);
      ("dead_rows", Json.Int t.dead_rows);
      ("degraded_diverted", Json.Int t.degraded_diverted);
      ("heal_probes", Json.Int t.heal_probes);
      ("rows_recovered", Json.Int t.rows_recovered);
      ("cache_hits", Json.Int t.cache_hits);
      ("cache_misses", Json.Int t.cache_misses);
      ("cache_hit_rate", Json.Float (cache_hit_rate t));
      ("cache_admitted", Json.Int t.cache_admitted);
      ("cache_evicted", Json.Int t.cache_evicted);
      ("cache_admit_skips", Json.Int t.cache_admit_skips);
      ("cache_repairs", Json.Int t.cache_repairs);
      ("cache_flushes", Json.Int t.cache_flushes);
      ("cache_closure", Json.of_summary (cache_closure t));
      ("cache_churn", Json.of_summary (cache_churn t));
      ("firmware_ms_total", Json.Float (firmware_ms_total t));
      ("hardware_ms_total", Json.Float (hardware_ms_total t));
      ("firmware_ms", Json.of_summary (firmware_ms t));
      ("hardware_ms", Json.of_summary (hardware_ms t));
      ("wall_ms", Json.of_summary (wall_ms t));
      ("drain_ops", Json.of_summary (drain_ops t));
      ("hw_per_op_ms", Json.of_summary (hw_per_op_ms t));
      ("latency_histogram", buckets_json t.wall);
      ("moves_histogram", buckets_json t.ops);
    ]
