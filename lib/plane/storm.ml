module Rule = Fr_tern.Rule
module Image = Fr_tcam.Image
module Dataset = Fr_workload.Dataset
module Zipf = Fr_workload.Zipf
module Firmware = Fr_switch.Firmware
module Agent = Fr_switch.Agent
module Measure = Fr_switch.Measure
module Ctrl = Fr_ctrl.Service
module Shard = Fr_ctrl.Shard
module Churn = Fr_ctrl.Churn
module Telemetry = Fr_ctrl.Telemetry

type spec = {
  kind : Dataset.kind;
  n : int;
  seed : int;
  flows : int;
  skew : float;
  ops : int;
  shards : int;
  capacity : int;
  batch : int;
  readers : int;
  min_lookups : int;
  rebuild_every : int;
}

let default_spec =
  {
    kind = Dataset.ACL4;
    n = 400;
    seed = 42;
    flows = 20_000;
    skew = 1.1;
    ops = 4_000;
    shards = 4;
    capacity = 1_500;
    batch = 32;
    readers = 1;
    min_lookups = 2_000;
    rebuild_every = 256;
  }

type result = {
  spec : spec;
  algo : Firmware.algo_kind;
  domains : int;
  applied : int;
  failed : int;
  flushes : int;
  storm_wall_ms : float;
  tcam_lat : Measure.summary;
  soft_lat : Measure.summary;
  lookups : int;
  hits : int;
  misses : int;
  retired_hits : int;
  epochs_seen : int;
  soft_rebuilds : int;
  agree : int;
  disagree : int;
}

(* What one LGEN domain brings home. *)
type reader_report = {
  r_tcam : Measure.Hist.t;
  r_soft : Measure.Hist.t;
  r_tallies : (int, int) Hashtbl.t;
  r_hits : int;
  r_misses : int;
  r_lookups : int;
  r_epochs : int;
  r_rebuilds : int;
  r_agree : int;
  r_disagree : int;
}

let now_ns () = Monotonic_clock.now ()

(* The reader loop: Zipf packets against shard 0's published snapshots,
   every lookup timed on the monotonic clock, hits tallied locally.  The
   software backend answers for its own (periodically refreshed)
   snapshot and is cross-checked against the linear image scan over that
   same snapshot — a comparison that stays well-defined however far the
   live table has moved on. *)
let reader ~spec ~shard0 ~rules ~stop idx () =
  let flows =
    Zipf.Flows.create ~rules
      ~seed:(spec.seed + (7919 * (idx + 1)))
      ~flows:spec.flows ~skew:spec.skew
  in
  let tcam_h = Measure.Hist.create () and soft_h = Measure.Hist.create () in
  let tallies = Hashtbl.create 64 in
  let hits = ref 0 and misses = ref 0 in
  let agree = ref 0 and disagree = ref 0 in
  let epochs = ref 0 and last_epoch = ref (-1) in
  let rebuilds = ref 0 in
  let backend = ref (Backend.of_image (Shard.published shard0)) in
  let n = ref 0 in
  while (not (Atomic.get stop)) || !n < spec.min_lookups do
    incr n;
    let _rank, pkt = Zipf.Flows.next flows in
    (* The RCU read: one atomic load, then an immutable snapshot. *)
    let img = Shard.published shard0 in
    let e = Image.epoch img in
    if e <> !last_epoch then begin
      last_epoch := e;
      incr epochs
    end;
    let t0 = now_ns () in
    let answer = Image.lookup img pkt in
    let t1 = now_ns () in
    Measure.Hist.record tcam_h (Int64.to_float (Int64.sub t1 t0));
    (match answer with
    | Some r ->
        incr hits;
        Hashtbl.replace tallies r.Rule.id
          (1 + Option.value (Hashtbl.find_opt tallies r.Rule.id) ~default:0)
    | None -> incr misses);
    if !n mod spec.rebuild_every = 0 then begin
      backend := Backend.of_image (Shard.published shard0);
      incr rebuilds
    end;
    let t2 = now_ns () in
    let soft = Backend.lookup !backend pkt in
    let t3 = now_ns () in
    Measure.Hist.record soft_h (Int64.to_float (Int64.sub t3 t2));
    let reference = Image.lookup (Backend.image !backend) pkt in
    let same =
      match (soft, reference) with
      | None, None -> true
      | Some (a : Rule.t), Some (b : Rule.t) -> a.Rule.id = b.Rule.id
      | _ -> false
    in
    if same then incr agree else incr disagree
  done;
  {
    r_tcam = tcam_h;
    r_soft = soft_h;
    r_tallies = tallies;
    r_hits = !hits;
    r_misses = !misses;
    r_lookups = !n;
    r_epochs = !epochs;
    r_rebuilds = !rebuilds;
    r_agree = !agree;
    r_disagree = !disagree;
  }

let run ?(algo = Firmware.FR_O Fr_sched.Store.Bit_backend) ?domains spec =
  if spec.readers < 1 then invalid_arg "Storm.run: readers must be >= 1";
  if spec.min_lookups < 1 then invalid_arg "Storm.run: min_lookups must be >= 1";
  if spec.rebuild_every < 1 then
    invalid_arg "Storm.run: rebuild_every must be >= 1";
  let stop = Atomic.make false in
  let handles = ref [] in
  let shard0_ref = ref None in
  (* [configure] fires after the service is built and before the first
     storm op is submitted: the window in which the LGEN domains spawn,
     so every flush of the run happens under reader fire. *)
  let configure svc =
    let shard0 = Ctrl.shard svc 0 in
    shard0_ref := Some shard0;
    let rules =
      Agent.rules (Shard.agent shard0) |> Array.of_list
    in
    Array.sort (fun (a : Rule.t) (b : Rule.t) -> Int.compare a.Rule.id b.Rule.id) rules;
    handles :=
      List.init spec.readers (fun i ->
          Domain.spawn (reader ~spec ~shard0 ~rules ~stop i))
  in
  let t0 = Measure.now_ms () in
  let churn =
    Churn.run ~algo ?domains ~configure
      {
        Churn.kind = spec.kind;
        initial = spec.n;
        ops = spec.ops;
        shards = spec.shards;
        capacity = spec.capacity;
        batch = spec.batch;
        seed = spec.seed;
      }
  in
  Atomic.set stop true;
  let reports = List.map Domain.join !handles in
  let storm_wall_ms = Measure.now_ms () -. t0 in
  let shard0 =
    match !shard0_ref with Some s -> s | None -> assert false
  in
  (* Merge: private histograms and flow-stats tallies fold in on this
     domain, after the readers joined — the counter fix for snapshot-
     served packets (Agent.account_hits). *)
  let tcam_h = Measure.Hist.create () and soft_h = Measure.Hist.create () in
  let agent = Shard.agent shard0 in
  List.iter
    (fun r ->
      Measure.Hist.merge ~into:tcam_h r.r_tcam;
      Measure.Hist.merge ~into:soft_h r.r_soft;
      Agent.account_hits agent ~misses:r.r_misses
        (Hashtbl.fold (fun id n acc -> (id, n) :: acc) r.r_tallies []))
    reports;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  {
    spec;
    algo;
    domains = Ctrl.domains churn.Churn.service;
    applied = churn.Churn.applied;
    failed = churn.Churn.failed;
    flushes = churn.Churn.flushes;
    storm_wall_ms;
    tcam_lat = Measure.Hist.summary tcam_h;
    soft_lat = Measure.Hist.summary soft_h;
    lookups = sum (fun r -> r.r_lookups);
    hits = sum (fun r -> r.r_hits);
    misses = sum (fun r -> r.r_misses);
    retired_hits = Agent.retired_hits agent;
    epochs_seen = sum (fun r -> r.r_epochs);
    soft_rebuilds = sum (fun r -> r.r_rebuilds);
    agree = sum (fun r -> r.r_agree);
    disagree = sum (fun r -> r.r_disagree);
  }

let run_all ?domains spec =
  List.map
    (fun algo -> run ~algo ?domains spec)
    (Firmware.standard_algos Fr_sched.Store.Bit_backend)

let pp_lat ppf (l : Measure.summary) =
  Format.fprintf ppf "p50 %.0f  p99 %.0f  p999 %.0f ns (%d samples)"
    l.Measure.p50 l.Measure.p99 l.Measure.p999 l.Measure.count

let pp_result ppf r =
  Format.fprintf ppf
    "%s/%s: %d lookups under %d storm ops (%d applied, %d failed, %d \
     flushes, %d domains, %d reader%s)@."
    (Dataset.to_string r.spec.kind)
    (Firmware.algo_kind_name r.algo)
    r.lookups r.spec.ops r.applied r.failed r.flushes r.domains r.spec.readers
    (if r.spec.readers = 1 then "" else "s");
  Format.fprintf ppf "  tcam-image lookup:  %a@." pp_lat r.tcam_lat;
  Format.fprintf ppf "  software backend:   %a@." pp_lat r.soft_lat;
  Format.fprintf ppf
    "  hits %d  misses %d  retired %d  epochs seen %d  rebuilds %d  \
     agree %d  disagree %d@."
    r.hits r.misses r.retired_hits r.epochs_seen r.soft_rebuilds r.agree
    r.disagree

let volatile_keys = [ "storm_wall_ms"; "traffic"; "tcam_ns"; "soft_ns" ]

let result_json r =
  let open Telemetry.Json in
  Obj
    [
      ("kind", Str (Dataset.to_string r.spec.kind));
      ("algo", Str (Firmware.algo_kind_name r.algo));
      ("n", Int r.spec.n);
      ("seed", Int r.spec.seed);
      ("flows", Int r.spec.flows);
      ("skew", Float r.spec.skew);
      ("ops", Int r.spec.ops);
      ("shards", Int r.spec.shards);
      ("capacity", Int r.spec.capacity);
      ("batch", Int r.spec.batch);
      ("readers", Int r.spec.readers);
      ("min_lookups", Int r.spec.min_lookups);
      ("rebuild_every", Int r.spec.rebuild_every);
      ("domains", Int r.domains);
      ("applied", Int r.applied);
      ("failed", Int r.failed);
      ("flushes", Int r.flushes);
      ("storm_wall_ms", Float r.storm_wall_ms);
      ( "traffic",
        Obj
          [
            ("lookups", Int r.lookups);
            ("hits", Int r.hits);
            ("misses", Int r.misses);
            ("retired_hits", Int r.retired_hits);
            ("epochs_seen", Int r.epochs_seen);
            ("soft_rebuilds", Int r.soft_rebuilds);
            ("agree", Int r.agree);
            ("disagree", Int r.disagree);
          ] );
      ("tcam_ns", of_summary r.tcam_lat);
      ("soft_ns", of_summary r.soft_lat);
    ]
