(* The repository benchmark: three closed-loop workloads driven through
   the library's public API from one process.

   - churn   — update-heavy: 64-mod windows against a warm 4-shard
               service, one probe lookup per window.
   - serve   — lookup-heavy: blocks of Zipf lookups on a one-shard
               published image, a 2-mod window after each block.
   - rollout — four 24-switch fleets, each with its own seeded scenario,
               taking turns to roll out old -> new and new -> old, each
               rollout planned from the live stamps (journaled twins run
               the same plans when traced).

   Every input is generated from the seed before any clock starts.
   Outputs are checked outside the timed spans, and a self-test corrupts
   one answer per check to show the check can fail.  With [--trace 1]
   the last three quarters of the loop also time calls into each layer
   (the first quarter runs untraced, and the two are compared to give the
   tracing overhead).  With [--gate] the run stops after its fixed
   warm-up at one domain and prints only the deterministic counts, which
   perfbench/run.py compares across two processes and against the
   warm-up of the measured run.  Wall-clock figures are reported at
   nominal host speed through a calibration kernel ([Calib]).  See
   perfbench/NOTES.md. *)

module Rule = Fr_tern.Rule
module Image = Fr_tcam.Image
module Tcam = Fr_tcam.Tcam
module Agent = Fr_switch.Agent
module Dataset = Fr_workload.Dataset
module Zipf = Fr_workload.Zipf
module Rng = Fr_prng.Rng
module Dag_build = Fr_dag.Build
module Service = Fr_ctrl.Service
module Shard = Fr_ctrl.Shard
module Telemetry = Fr_ctrl.Telemetry
module Backend = Fr_plane.Backend
module Fleet = Fr_net.Fleet
module Plan = Fr_net.Plan
module Policy = Fr_net.Policy
module Scenario = Fr_net.Scenario
module Topo = Fr_net.Topo

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* -- raw samples and exact quantiles ---------------------------------- *)

(* Pre-generated input streams and raw samples live in bigarrays, off
   the OCaml heap, so [heap_mb] measures what the library keeps rather
   than the benchmark's own buffers. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* Every sample carries the time it was added, so [Calib.local] can
   relate it to the host's speed at that moment. *)
module Samples = struct
  type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  type t = { mutable a : buf; mutable ts : buf; mutable n : int }

  let make n : buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
  let create () = { a = make 1024; ts = make 1024; n = 0 }

  let grow t (b : buf) =
    let b' = make (2 * t.n) in
    Bigarray.Array1.blit b (Bigarray.Array1.sub b' 0 t.n);
    b'

  let add_at t x time =
    if t.n = Bigarray.Array1.dim t.a then begin
      t.a <- grow t t.a;
      t.ts <- grow t t.ts
    end;
    t.a.{t.n} <- x;
    t.ts.{t.n} <- time;
    t.n <- t.n + 1

  let add t x = add_at t x (now_ns ())

  let count t = t.n
  let to_array t = Array.init t.n (fun i -> t.a.{i})

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.{i}
    done;
    !s

  (* The samples with each value mapped by [f time value]. *)
  let map f t =
    let u = create () in
    for i = 0 to t.n - 1 do
      add_at u (f t.ts.{i} t.a.{i}) t.ts.{i}
    done;
    u

  let mean t = if t.n = 0 then 0.0 else sum t /. float_of_int t.n
end

let median_array a =
  let n = Array.length a in
  Array.sort Float.compare a;
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median s = median_array (Samples.to_array s)

exception Unsupported of string

(* Nearest-rank quantile over the raw samples.  A percentile is quoted
   only when at least 10 samples lie beyond it; anything thinner aborts
   the run instead of printing a number the sample cannot support. *)
let quantile ~what s p =
  let a = Samples.to_array s in
  let n = Array.length a in
  Array.sort Float.compare a;
  let k = max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1) in
  if n = 0 || n - 1 - k < 10 then
    raise
      (Unsupported
         (Printf.sprintf "%s: %d samples leave %d beyond p%g (need 10)" what n
            (max 0 (n - 1 - k)) (100.0 *. p)));
  a.(k)

(* -- metrics and output ----------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; n : int; raw : float }

let metric ?(n = 1) name unit_ value = { name; unit_; value; n; raw = value }

let quantile_metric name unit_ s p =
  metric ~n:(Samples.count s) name unit_ (quantile ~what:name s p)

(* A layer median; 0 with n=0 for a layer the workload never calls. *)
let layer_p50 name unit_ s =
  if Samples.count s = 0 then metric ~n:0 name unit_ 0.0
  else quantile_metric name unit_ s 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let mb_of_words w = fi w *. fi (Sys.word_size / 8) /. 1048576.0

(* The heap the system under test keeps: words reachable from the
   service (or fleet), sampled between cycles, outside every timed span.
   The process-wide [top_heap_words] peak also counts garbage the runtime
   has not collected yet; on OCaml 5.1 that grew with run length and was
   mostly the benchmark's own checking garbage. *)
let heap_peak = ref 0

let heap_sample sys = heap_peak := max !heap_peak (Obj.reachable_words (Obj.repr sys))

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_str s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields)
  ^ "}"

(* -- machine-speed calibration ------------------------------------------ *)

(* The speed of the host drifts by tens of percent within seconds, and
   a drift moves every wall-clock figure taken in it.  A fixed reference
   kernel that shares no code with the library — walks over a stdlib
   [Map], the pointer chase of [Image.lookup], and in-place [Hashtbl]
   writes, the pattern of the service's route rebuild — is timed between
   cycles.  Its time against [nominal_ns] is the host's speed factor at
   that moment; every end-to-end sample is divided by the factor of the
   kernel runs within half a second of it, i.e. reported as it would have
   read on this host at nominal speed.  The raw figures and the run's
   median factor are printed beside them. *)
module Calib = struct
  module M = Map.Make (Int)

  let nominal_ns = 700_000.0
  let keys = 4096
  let map = List.fold_left (fun m k -> M.add k k m) M.empty (List.init keys (fun i -> 7 * i))
  let tbl : (int, int) Hashtbl.t = Hashtbl.create keys
  let () = for i = 0 to keys - 1 do Hashtbl.replace tbl (i * 31) 0 done
  let sum = ref 0
  let add _ v = sum := !sum + v
  let samples = Samples.create ()

  (* Allocation-free, so no collection of the system's heap can run
     inside it: [M.iter] with a closed function, and [Hashtbl.replace] on
     keys already present rewrites the bucket in place. *)
  let kernel () =
    sum := 0;
    for _ = 1 to 16 do
      M.iter add map
    done;
    for i = 0 to keys - 1 do
      Hashtbl.replace tbl (i * 31) !sum
    done

  let sample () =
    let t0 = now_ns () in
    kernel ();
    Samples.add samples (now_ns () -. t0)

  (* Median kernel time over nominal; 1 when nothing was sampled. *)
  let factor () =
    if Samples.count samples = 0 then 1.0 else median samples /. nominal_ns

  let window_ns = 0.5e9

  (* [s] at nominal speed: each sample divided by the speed factor of the
     kernel runs within [window_ns] either side of it (the run's factor
     where there are none).  Both series are in time order, so the
     window slides forward. *)
  let local s =
    let k = samples and n = Samples.count samples in
    let lo = ref 0 and hi = ref 0 and cached = ref (-1, -1, 1.0) in
    let at t =
      while !lo < n && k.Samples.ts.{!lo} < t -. window_ns do incr lo done;
      while !hi < n && k.Samples.ts.{!hi} <= t +. window_ns do incr hi done;
      match !cached with
      | a, b, f when a = !lo && b = !hi -> f
      | _ ->
          let f =
            if !hi <= !lo then factor ()
            else
              median_array (Array.init (!hi - !lo) (fun i -> k.Samples.a.{!lo + i}))
              /. nominal_ns
          in
          cached := (!lo, !hi, f);
          f
    in
    Samples.map (fun t x -> x /. at t) s
end

(* -- run configuration ------------------------------------------------ *)

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  gate : bool;
  work : string;  (** scratch directory for journals *)
}

let rec tree_sizes acc p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc e -> tree_sizes acc (Filename.concat p e))
        acc (Sys.readdir p)
  | Unix.S_REG -> (p, (Unix.lstat p).Unix.st_size) :: acc
  | _ -> acc

(* Bytes written to a journal tree between two listings: growth of each
   file that existed, plus every new file.  A WAL truncated by a
   checkpoint contributes its regrowth only, so this is a lower bound. *)
let bytes_written before after =
  List.fold_left
    (fun acc (p, sz) ->
      match List.assoc_opt p before with
      | Some old -> acc + max 0 (sz - old)
      | None -> acc + sz)
    0 after

(* One timed build from the generated inputs, as a [setup_s] sample. *)
let timed_build samples build =
  let t0 = now_ns () in
  let x = build () in
  Samples.add samples ((now_ns () -. t0) /. 1e9);
  x

(* Every workload drives the library on one domain.  At 2 domains (the
   CLI default on a 2-vCPU host) churn's parallel drains spread 17-22%
   across runs against 5-15% at 1 domain: each flush wakes a parked pool
   worker on the other vCPU, and that wake-up costs whatever the host's
   load makes it.  Results are bit-identical at any domain count in
   everything modelled. *)
let domains = 1

(* -- what one workload run produces ----------------------------------- *)

type result = {
  setup : Samples.t;
  e2e : metric list;
  layers : metric list;
  counts : (string * int) list;  (** deterministic, at the end of warm-up *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** output checks: true = passed *)
  selftests : (string * bool) list;  (** true = the corruption was caught *)
  info : (string * string) list;
}

(* Loop phases.  [Warm] cycles are run but not sampled; [Plain] cycles are
   sampled untraced; [Traced] cycles are sampled with per-layer timers. *)
type phase = Warm | Plain | Traced

(* Accumulators of the sampled (non-warm-up) part of the loop. *)
type acc = {
  update_ms : Samples.t;  (** one window or round, first submit to flush return *)
  cycle_ms : Samples.t;
  lookup_ns : Samples.t;
  update_span_ms : Samples.t;  (** time spent applying mods, the rate's denominator *)
  lookup_span_ns : Samples.t;  (** time spent in lookups, likewise *)
  mutable applied : int;
  mutable hw_ms : float;  (** modelled TCAM time of the applied mods *)
}

let new_acc () =
  {
    update_ms = Samples.create ();
    cycle_ms = Samples.create ();
    lookup_ns = Samples.create ();
    update_span_ms = Samples.create ();
    lookup_span_ns = Samples.create ();
    applied = 0;
    hw_ms = 0.0;
  }

(* Per-layer accumulators, filled only in the traced phase. *)
type tr = {
  submit_ns : Samples.t;
  backend_ns : Samples.t;
  plan_ms : Samples.t;
  round_ms : Samples.t;
  t_cycle_ms : Samples.t;  (** traced cycle times, for the overhead *)
  publishes : int Atomic.t;
  mutable t_cycles : int;
  mutable t_loop_ms : float;  (** benchmark-timed windows (rollouts) *)
  mutable submit_ms : float;
  mutable flush_ms : float;
  mutable report_ms : float;
  mutable drain_ms : float;
  mutable firmware_ms : float;
  mutable t_applied : int;
  mutable t_hw_ms : float;
  mutable tcam_ops : int;
  mutable moves : int;
  mutable submitted : int;
  mutable coalesced : int;
  mutable lookups : int;
  mutable misses : int;
  mutable journal_ms : float;
  mutable journal_bytes : int;
  mutable gc_minor0 : float;
  mutable gc_major0 : int;
}

let new_tr () =
  {
    submit_ns = Samples.create ();
    backend_ns = Samples.create ();
    plan_ms = Samples.create ();
    round_ms = Samples.create ();
    t_cycle_ms = Samples.create ();
    publishes = Atomic.make 0;
    t_cycles = 0;
    t_loop_ms = 0.0;
    submit_ms = 0.0;
    flush_ms = 0.0;
    report_ms = 0.0;
    drain_ms = 0.0;
    firmware_ms = 0.0;
    t_applied = 0;
    t_hw_ms = 0.0;
    tcam_ops = 0;
    moves = 0;
    submitted = 0;
    coalesced = 0;
    lookups = 0;
    misses = 0;
    journal_ms = 0.0;
    journal_bytes = 0;
    gc_minor0 = 0.0;
    gc_major0 = 0;
  }

(* Drive [cycle] through warm-up, then the measured loop.  Untraced runs
   sample for the whole budget; traced runs spend the first quarter
   untraced (the baseline for the tracing overhead) and the rest traced.
   Every [setup_every] cycles [rebuild] times one more build from the
   same inputs: spread over the loop, the [setup_s] samples see the same
   machine as the loop does instead of the first second of the process.
   The heap is sampled at the same points up to cycle [heap_until] only,
   so [heap_mb] covers the same work on a fast or a slow machine.  Every
   [calib_every] cycles the calibration kernel is timed.
   Returns the number of measured cycles. *)
let drive cfg ~sys ~warm ~max_cycles ~setup_every ~heap_until ~calib_every ~rebuild ~on_traced
    ~cycle =
  for _ = 1 to warm do
    cycle Warm
  done;
  heap_sample sys;
  if not cfg.gate then rebuild ();
  let t0 = now_ns () in
  let budget = cfg.seconds *. 1e9 in
  let plain_until = if cfg.trace then t0 +. (budget /. 4.0) else t0 +. budget in
  let n = ref warm in
  let step ph =
    cycle ph;
    incr n;
    let k = !n - warm in
    if k mod calib_every = 0 then Calib.sample ();
    if k mod setup_every = 0 then begin
      if k <= heap_until then heap_sample sys;
      rebuild ();
      (* Collect the discarded build now, so its garbage is not swept
         inside the next cycles' timings. *)
      Gc.full_major ()
    end
  in
  while now_ns () < plain_until && !n < max_cycles do
    step Plain
  done;
  if cfg.trace then begin
    on_traced ();
    while now_ns () < t0 +. budget && !n < max_cycles do
      step Traced
    done
  end;
  !n - warm

let gc_mark tr =
  let s = Gc.quick_stat () in
  tr.gc_minor0 <- s.Gc.minor_words;
  tr.gc_major0 <- s.Gc.major_collections

let gc_layers tr ~ops =
  let s = Gc.quick_stat () in
  [
    metric ~n:ops "gc.minor_words_per_op" "words/op"
      (ratio (s.Gc.minor_words -. tr.gc_minor0) (fi ops));
    metric "gc.major_collections" "count"
      (fi (s.Gc.major_collections - tr.gc_major0));
  ]

(* The layer metrics, one list for all three workloads; a layer a
   workload never calls reports 0.  [accounted_ms] is the part of the
   benchmark-timed loop ([tr.t_loop_ms]) that the layer timings explain. *)
let layer_metrics ~acc ~tr ~compile_ms ~accounted_ms =
  let windows = tr.t_cycles in
  let per_window x = ratio x (fi windows) in
  let mods = fi tr.t_applied in
  [
    layer_p50 "ctrl.submit_ns_p50" "ns" tr.submit_ns;
    metric ~n:tr.submitted "ctrl.coalesced_frac" "frac"
      (ratio (fi tr.coalesced) (fi tr.submitted));
    metric ~n:windows "ctrl.flush_ms" "ms/window" (per_window tr.flush_ms);
    metric ~n:windows "ctrl.drain_ms" "ms/window" (per_window tr.drain_ms);
    metric ~n:windows "ctrl.epilogue_ms" "ms/window"
      (if tr.flush_ms > 0.0 then per_window (tr.report_ms -. tr.drain_ms) else 0.0);
    metric ~n:windows "ctrl.unreported_ms" "ms/window"
      (per_window (tr.flush_ms -. tr.report_ms));
    metric ~n:windows "agent.firmware_ms" "ms/window" (per_window tr.firmware_ms);
    metric ~n:windows "agent.other_drain_ms" "ms/window"
      (per_window (tr.drain_ms -. tr.firmware_ms));
    metric ~n:tr.t_applied "tcam.ops_per_mod" "ops/mod" (ratio (fi tr.tcam_ops) mods);
    metric ~n:tr.t_applied "tcam.moves_per_mod" "moves/mod" (ratio (fi tr.moves) mods);
    metric ~n:tr.t_applied "image.publishes_per_mod" "count/mod"
      (ratio (fi (Atomic.get tr.publishes)) mods);
    metric ~n:tr.lookups "image.miss_frac" "frac"
      (ratio (fi tr.misses) (fi tr.lookups));
    layer_p50 "backend.lookup_ns_p50" "ns" tr.backend_ns;
    metric "dag.compile_fast_ms" "ms" compile_ms;
    layer_p50 "plan.ms_p50" "ms" tr.plan_ms;
    layer_p50 "fleet.round_ms_p50" "ms" tr.round_ms;
    metric ~n:tr.t_cycles "journal.ms" "ms/rollout"
      (ratio tr.journal_ms (fi tr.t_cycles));
    metric ~n:tr.t_applied "journal.bytes_per_mod" "B/mod"
      (ratio (fi tr.journal_bytes) mods);
    metric ~n:tr.t_applied "trace.tcam_ms_per_mod" "ms/mod" (ratio tr.t_hw_ms mods);
    metric ~n:tr.t_cycles "trace.accounted_frac" "frac" (ratio accounted_ms tr.t_loop_ms);
    metric ~n:tr.t_cycles "trace.overhead_frac" "frac"
      (ratio (Samples.mean tr.t_cycle_ms) (Samples.mean acc.cycle_ms) -. 1.0);
    metric ~n:(Samples.count Calib.samples) "calib.speed_factor" "x" (Calib.factor ());
  ]
  @ gc_layers tr ~ops:(tr.t_applied + tr.lookups)

(* Churn and serve call the service directly: each window is submit +
   flush, and the flush is drain + epilogue + unreported. *)
let service_layers ~acc ~tr ~compile_ms =
  layer_metrics ~acc ~tr ~compile_ms ~accounted_ms:(tr.submit_ms +. tr.flush_ms)

(* Every wall-clock metric is computed twice from the same samples: at
   nominal speed ([Calib.local]) for the value, and as measured for [raw]. *)
let e2e_metrics ~acc ~setup =
  let wall ~n name unit_ f s =
    match f s with
    | raw -> { (metric ~n name unit_ (f (Calib.local s))) with raw }
    | exception Unsupported msg -> raise (Unsupported (name ^ msg))
  in
  let q p s = quantile ~what:"" s p in
  let rate count per s = ratio (fi count) (Samples.sum s /. per) in
  let updates = Samples.count acc.update_ms and lookups = Samples.count acc.lookup_ns in
  [
    wall ~n:(Samples.count setup) "setup_s" "s" median setup;
    wall ~n:updates "update_mods_per_s" "1/s" (rate acc.applied 1e3) acc.update_span_ms;
    wall ~n:updates "update_ms_p50" "ms" (q 0.5) acc.update_ms;
    wall ~n:updates "update_ms_p99" "ms" (q 0.99) acc.update_ms;
    metric ~n:(Samples.count acc.cycle_ms) "tcam_ms_per_cycle" "ms"
      (ratio acc.hw_ms (fi (Samples.count acc.cycle_ms)));
    wall ~n:lookups "lookup_ns_p50" "ns" (q 0.5) acc.lookup_ns;
    wall ~n:lookups "lookup_ns_p99" "ns" (q 0.99) acc.lookup_ns;
    wall ~n:lookups "lookups_per_s" "1/s" (rate lookups 1e9) acc.lookup_span_ns;
    wall ~n:(Samples.count acc.cycle_ms) "cycle_ms_p50" "ms" (q 0.5) acc.cycle_ms;
    metric "heap_mb" "MB" (mb_of_words !heap_peak);
  ]

(* A cycle's benchmark-timed work (checks excluded) goes to the untraced
   samples or, in the traced phase, to the overhead comparison. *)
let record_cycle ~acc ~tr ph ms =
  match ph with
  | Warm -> ()
  | Plain -> Samples.add acc.cycle_ms ms
  | Traced ->
      Samples.add tr.t_cycle_ms ms;
      tr.t_cycles <- tr.t_cycles + 1

(* -- output checks ---------------------------------------------------- *)

let id_of = function Some (r : Rule.t) -> r.Rule.id | None -> -1

(* A timed answer is right when the software backend compiled from the
   very same snapshot gives the same winner. *)
let answer_ok backend pkt answer = id_of (Backend.lookup backend pkt) = answer

(* Corrupt a recorded answer and show [answer_ok] rejects it. *)
let answer_selftest = function
  | None -> false
  | Some (backend, pkt, answer) ->
      let wrong = if answer = -1 then 0 else -1 in
      (not (answer_ok backend pkt wrong)) && answer_ok backend pkt answer

(* -- churn ------------------------------------------------------------ *)

module Churn_w = struct
  let kind = Dataset.FW5
  let shards = 4
  let per_shard = 4_000
  let spare = 2_000
  let capacity = 6_000
  let window = 64
  let pairs = 28  (* remove + add pairs per window *)
  let rewrites = 4  (* per half: on this window's adds, on older rules *)
  let flows = 4_000
  let skew = 0.5
  let warm = 32
  let windows_per_s = 1_000  (* stream cap: a 2-vCPU host runs ≈200/s *)
  let check_every = 4  (* probes checked against the backend *)
end

(* A flow-mod stream coded as ints: kind in bits 0-1 (0 add, 1 remove,
   2 set-action), port in bits 2-5, rule index above. *)
let code ~kind ~port idx = (idx lsl 6) lor (port lsl 2) lor kind

let churn_stream ~rng ~live ~spares ~windows =
  let open Churn_w in
  let live = Array.copy live in
  let dead = Queue.create () in
  Array.iter (fun i -> Queue.add i dead) spares;
  let out = ints (windows * window) in
  let pos = ref 0 in
  let emit c =
    out.{!pos} <- c;
    incr pos
  in
  let added = Array.make pairs 0 in
  for _ = 1 to windows do
    for j = 0 to pairs - 1 do
      let i = Rng.int rng (Array.length live) in
      emit (code ~kind:1 ~port:0 live.(i));
      Queue.add live.(i) dead;
      let back = Queue.pop dead in
      live.(i) <- back;
      added.(j) <- i;
      emit (code ~kind:0 ~port:0 back)
    done;
    for _ = 1 to rewrites do
      (* The slot's current occupant was added in this window. *)
      emit (code ~kind:2 ~port:(Rng.int rng 16) live.(added.(Rng.int rng pairs)))
    done;
    for _ = 1 to rewrites do
      emit
        (code ~kind:2 ~port:(Rng.int rng 16) live.(Rng.int rng (Array.length live)))
    done
  done;
  out

let decode pool c =
  let idx = c lsr 6 in
  match c land 3 with
  | 0 -> Agent.Add pool.(idx)
  | 1 -> Agent.Remove { id = pool.(idx).Rule.id }
  | _ -> Agent.Set_action { id = pool.(idx).Rule.id; action = Rule.Forward ((c lsr 2) land 15) }

let sum_results (rep : Service.flush_report) f =
  Array.fold_left (fun acc d -> acc +. f d) 0.0 rep.Service.results

let shard_telemetry svc i = Shard.telemetry (Service.shard svc i)

let tele_sum svc f =
  let s = ref 0 in
  for i = 0 to Service.shards svc - 1 do
    s := !s + f (shard_telemetry svc i)
  done;
  !s

let observe_publishes svc counter =
  for i = 0 to Service.shards svc - 1 do
    Agent.set_publish_observer
      (Shard.agent (Service.shard svc i))
      (Some (fun _ -> Atomic.incr counter))
  done

(* One update window through a service: submit every mod, flush, and
   fold the report into the accumulators.  Returns the window's wall ns. *)
let run_window ~svc ~acc ~tr ~ph ~failed mods =
  let t0 = now_ns () in
  (match ph with
  | Traced ->
      List.iter
        (fun m ->
          let s0 = now_ns () in
          Service.submit svc m;
          let s1 = now_ns () in
          Samples.add tr.submit_ns (s1 -. s0);
          tr.submit_ms <- tr.submit_ms +. ((s1 -. s0) /. 1e6))
        mods
  | Warm | Plain -> List.iter (Service.submit svc) mods);
  let f0 = now_ns () in
  let rep = Service.flush svc in
  let t1 = now_ns () in
  let dt = t1 -. t0 in
  let applied = Service.applied rep in
  failed := !failed + List.length (Service.failures rep);
  let hw = sum_results rep (fun d -> d.Shard.hardware_ms) in
  (match ph with
  | Warm -> ()
  | Plain ->
      Samples.add acc.update_ms (dt /. 1e6);
      Samples.add acc.update_span_ms (dt /. 1e6);
      acc.applied <- acc.applied + applied;
      acc.hw_ms <- acc.hw_ms +. hw
  | Traced ->
      tr.t_loop_ms <- tr.t_loop_ms +. (dt /. 1e6);
      tr.flush_ms <- tr.flush_ms +. ((t1 -. f0) /. 1e6);
      tr.report_ms <- tr.report_ms +. rep.Service.wall_ms;
      tr.drain_ms <- tr.drain_ms +. sum_results rep (fun d -> d.Shard.wall_ms);
      tr.firmware_ms <- tr.firmware_ms +. sum_results rep (fun d -> d.Shard.firmware_ms);
      tr.t_applied <- tr.t_applied + applied;
      tr.t_hw_ms <- tr.t_hw_ms +. hw;
      tr.tcam_ops <-
        tr.tcam_ops
        + Array.fold_left (fun a d -> a + d.Shard.tcam_ops) 0 rep.Service.results;
      tr.submitted <- tr.submitted + List.length mods;
      tr.coalesced <-
        tr.coalesced
        + Array.fold_left (fun a d -> a + d.Shard.coalesced) 0 rep.Service.results);
  (dt, applied, rep)

let flows_ranks flows ~n =
  let ranks = ints n in
  for i = 0 to n - 1 do
    ranks.{i} <- fst (Zipf.Flows.next flows)
  done;
  ranks

let run_churn cfg =
  let open Churn_w in
  let n_live = shards * per_shard in
  let pool = Dataset.generate kind ~seed:cfg.seed ~n:(n_live + spare) in
  let preload = Array.sub pool 0 n_live in
  let max_windows =
    if cfg.gate then warm else warm + (windows_per_s * int_of_float (Float.ceil cfg.seconds))
  in
  let stream =
    churn_stream ~rng:(Rng.create ~seed:(cfg.seed + 1))
      ~live:(Array.init n_live Fun.id)
      ~spares:(Array.init spare (fun i -> n_live + i))
      ~windows:max_windows
  in
  let build () = Service.of_rules ~domains ~shards ~capacity preload in
  let svc = build () in
  let setup = Samples.create () in
  let rebuild () = ignore (timed_build setup build) in
  (* Probe packets: per shard, a Zipf flow universe over the rules the
     partitioner gave it, and a pre-drawn rank stream. *)
  let per_shard_rules =
    Array.init shards (fun s ->
        Array.of_list
          (List.filter
             (fun (r : Rule.t) -> Service.shard_of_rule svc r.Rule.id = Some s)
             (Array.to_list preload)))
  in
  let probes =
    Array.mapi
      (fun s rules ->
        let fl = Zipf.Flows.create ~rules ~seed:(cfg.seed + 17 + s) ~flows ~skew in
        let ranks = flows_ranks fl ~n:((max_windows / shards) + 1) in
        (Array.init flows (Zipf.Flows.packet_of fl), ranks))
      per_shard_rules
  in
  let compile_ms =
    if cfg.trace then begin
      let t0 = now_ns () in
      ignore (Dag_build.compile_fast preload);
      (now_ns () -. t0) /. 1e6
    end
    else 0.0
  in
  let acc = new_acc () and tr = new_tr () in
  let failed = ref 0 and submitted = ref 0 and lookups = ref 0 in
  let mismatches = ref 0 and checked = ref 0 in
  let sample_answer = ref None in
  let w = ref 0 in
  let warm_applied = ref 0 and warm_ops = ref 0 and warm_misses = ref 0 in
  let cycle ph =
    let base = !w * window in
    let mods = List.init window (fun j -> decode pool stream.{base + j}) in
    submitted := !submitted + window;
    let dt, applied, rep = run_window ~svc ~acc ~tr ~ph ~failed mods in
    if ph = Warm then begin
      warm_applied := !warm_applied + applied;
      warm_ops :=
        !warm_ops + Array.fold_left (fun a d -> a + d.Shard.tcam_ops) 0 rep.Service.results
    end;
    (* One probe lookup on the shard whose turn it is. *)
    let s = !w mod shards in
    let pkt =
      let packets, ranks = probes.(s) in
      packets.(ranks.{!w / shards})
    in
    let img = Service.published svc ~shard:s in
    let l0 = now_ns () in
    let ans = Image.lookup img pkt in
    let l1 = now_ns () in
    incr lookups;
    let answer = id_of ans in
    record_cycle ~acc ~tr ph ((dt +. (l1 -. l0)) /. 1e6);
    (match ph with
    | Warm -> if answer = -1 then incr warm_misses
    | Plain ->
        Samples.add acc.lookup_ns (l1 -. l0);
        Samples.add acc.lookup_span_ns (l1 -. l0)
    | Traced ->
        tr.lookups <- tr.lookups + 1;
        if answer = -1 then tr.misses <- tr.misses + 1);
    if (!w / shards) mod check_every = 0 then begin
      let backend = Backend.of_image img in
      incr checked;
      if not (answer_ok backend pkt answer) then incr mismatches;
      if !sample_answer = None then sample_answer := Some (backend, pkt, answer);
      if ph = Traced then begin
        let b0 = now_ns () in
        ignore (Backend.lookup backend pkt);
        Samples.add tr.backend_ns (now_ns () -. b0)
      end
    end;
    incr w
  in
  if cfg.gate then observe_publishes svc tr.publishes;
  let moves0 = ref 0 in
  let cycles =
    drive cfg ~sys:svc ~warm ~max_cycles:max_windows ~setup_every:200 ~heap_until:1000
      ~calib_every:2 ~rebuild
      ~on_traced:(fun () ->
        observe_publishes svc tr.publishes;
        moves0 := tele_sum svc Telemetry.moves;
        gc_mark tr)
      ~cycle
  in
  tr.moves <- tele_sum svc Telemetry.moves - !moves0;
  let layers = if cfg.trace then service_layers ~acc ~tr ~compile_ms else [] in
  let e2e = if cfg.gate || cfg.trace then [] else e2e_metrics ~acc ~setup in
  (* Checks, after the clock stops. *)
  let consistent =
    List.for_all
      (fun i -> Result.is_ok (Agent.verify_consistent (Shard.agent (Service.shard svc i))))
      (List.init shards Fun.id)
  in
  let selftests =
    if cfg.gate then []
    else begin
      (* A bogus remove must surface as a failed mod ... *)
      Service.submit svc (Agent.Remove { id = max_int / 2 });
      let rep = Service.flush svc in
      let fail_caught = Service.failures rep <> [] in
      (* ... and a slot erased behind the agent's back must fail the
         consistency check. *)
      let agent0 = Shard.agent (Service.shard svc 0) in
      let tcam = Agent.tcam agent0 in
      (match Tcam.highest_used tcam with
      | Some addr -> Tcam.erase tcam ~addr
      | None -> ());
      [
        ("failed-mod", fail_caught);
        ("consistency", Result.is_error (Agent.verify_consistent agent0));
        ("lookup-answer", answer_selftest !sample_answer);
      ]
    end
  in
  {
    setup;
    e2e;
    layers;
    counts =
      [
        ("windows", warm);
        ("applied", !warm_applied);
        ("tcam_ops", !warm_ops);
        ("probe_misses", !warm_misses);
        ("publishes", Atomic.get tr.publishes);
      ];
    attempted = !submitted + !lookups;
    failed = !failed + !mismatches + (if consistent then 0 else 1);
    checks =
      [
        ("zero-failed-mods", !failed = 0);
        ("verify-consistent", consistent);
        ("probe-answers", !mismatches = 0 && (cfg.gate || !checked > 0));
      ];
    selftests;
    info =
      [
        ("table", Printf.sprintf "FW5 %d rules over %d shards, capacity %d/shard" n_live shards capacity);
        ("window", Printf.sprintf "%d mods (%d remove+add pairs, %d rewrites)" window pairs (2 * rewrites));
        ("windows", string_of_int cycles);
        ("probes_checked", string_of_int !checked);
      ];
  }

(* -- serve ------------------------------------------------------------ *)

module Serve_w = struct
  let kind = Dataset.ACL4
  let rules = 1_000
  let held_out = 16
  let capacity = 1_500
  let block = 50  (* lookups between two windows *)
  let flows = 20_000
  let skew = 0.5
  let warm = 100
  let cycles_per_s = 2_000
end

let run_serve cfg =
  let open Serve_w in
  let all = Dataset.generate kind ~seed:cfg.seed ~n:(rules + held_out) in
  let preload = Array.sub all 0 rules in
  let max_cycles =
    if cfg.gate then warm else warm + (cycles_per_s * int_of_float (Float.ceil cfg.seconds))
  in
  (* Window stream: remove a random live rule, re-add the oldest removed. *)
  let rng = Rng.create ~seed:(cfg.seed + 1) in
  let live = Array.init rules Fun.id in
  let dead = Queue.create () in
  for i = rules to rules + held_out - 1 do
    Queue.add i dead
  done;
  let removes = ints max_cycles and adds = ints max_cycles in
  for c = 0 to max_cycles - 1 do
    let i = Rng.int rng rules in
    removes.{c} <- live.(i);
    Queue.add live.(i) dead;
    adds.{c} <- Queue.pop dead;
    live.(i) <- adds.{c}
  done;
  let fl = Zipf.Flows.create ~rules:all ~seed:(cfg.seed + 17) ~flows ~skew in
  let packets = Array.init flows (Zipf.Flows.packet_of fl) in
  let ranks = flows_ranks fl ~n:(max_cycles * block) in
  let build () = Service.of_rules ~domains ~shards:1 ~capacity preload in
  let svc = build () in
  let setup = Samples.create () in
  let rebuild () = ignore (timed_build setup build) in
  let compile_ms =
    if cfg.trace then begin
      let t0 = now_ns () in
      ignore (Dag_build.compile_fast preload);
      (now_ns () -. t0) /. 1e6
    end
    else 0.0
  in
  let acc = new_acc () and tr = new_tr () in
  let failed = ref 0 and submitted = ref 0 and lookups = ref 0 in
  let mismatches = ref 0 in
  let sample_answer = ref None in
  let answers = Array.make block 0 and times = Array.make block 0.0 in
  let c = ref 0 in
  let warm_applied = ref 0 and warm_ops = ref 0 and warm_misses = ref 0 in
  let cycle ph =
    let img = Service.published svc ~shard:0 in
    let base = !c * block in
    let b0 = now_ns () in
    for k = 0 to block - 1 do
      let pkt = packets.(ranks.{base + k}) in
      let l0 = now_ns () in
      let ans = Image.lookup img pkt in
      let l1 = now_ns () in
      times.(k) <- l1 -. l0;
      answers.(k) <- id_of ans
    done;
    let b1 = now_ns () in
    lookups := !lookups + block;
    let mods =
      [ Agent.Remove { id = all.(removes.{!c}).Rule.id }; Agent.Add all.(adds.{!c}) ]
    in
    submitted := !submitted + 2;
    let dt, applied, rep = run_window ~svc ~acc ~tr ~ph ~failed mods in
    (* Everything below is bookkeeping and checks, outside the timings. *)
    let misses = Array.fold_left (fun a x -> if x = -1 then a + 1 else a) 0 answers in
    record_cycle ~acc ~tr ph ((b1 -. b0 +. dt) /. 1e6);
    (match ph with
    | Warm ->
        warm_applied := !warm_applied + applied;
        warm_ops :=
          !warm_ops + Array.fold_left (fun a d -> a + d.Shard.tcam_ops) 0 rep.Service.results;
        warm_misses := !warm_misses + misses
    | Plain ->
        Array.iter (Samples.add acc.lookup_ns) times;
        Samples.add acc.lookup_span_ns (b1 -. b0)
    | Traced ->
        tr.lookups <- tr.lookups + block;
        tr.misses <- tr.misses + misses);
    let backend = Backend.of_image img in
    for k = 0 to block - 1 do
      let pkt = packets.(ranks.{base + k}) in
      if not (answer_ok backend pkt answers.(k)) then incr mismatches
    done;
    if !sample_answer = None then
      sample_answer := Some (backend, packets.(ranks.{base}), answers.(0));
    if ph = Traced then begin
      for k = 0 to block - 1 do
        let pkt = packets.(ranks.{base + k}) in
        let q0 = now_ns () in
        ignore (Backend.lookup backend pkt);
        Samples.add tr.backend_ns (now_ns () -. q0)
      done
    end;
    incr c
  in
  if cfg.gate then observe_publishes svc tr.publishes;
  let moves0 = ref 0 in
  let cycles =
    drive cfg ~sys:svc ~warm ~max_cycles ~setup_every:100 ~heap_until:1000
      ~calib_every:4 ~rebuild
      ~on_traced:(fun () ->
        observe_publishes svc tr.publishes;
        moves0 := tele_sum svc Telemetry.moves;
        gc_mark tr)
      ~cycle
  in
  tr.moves <- tele_sum svc Telemetry.moves - !moves0;
  let layers = if cfg.trace then service_layers ~acc ~tr ~compile_ms else [] in
  let e2e = if cfg.gate || cfg.trace then [] else e2e_metrics ~acc ~setup in
  let agent = Shard.agent (Service.shard svc 0) in
  let consistent = Result.is_ok (Agent.verify_consistent agent) in
  let selftests =
    if cfg.gate then []
    else begin
      Service.submit svc (Agent.Remove { id = max_int / 2 });
      let fail_caught = Service.failures (Service.flush svc) <> [] in
      let tcam = Agent.tcam agent in
      (match Tcam.highest_used tcam with Some addr -> Tcam.erase tcam ~addr | None -> ());
      [
        ("failed-mod", fail_caught);
        ("consistency", Result.is_error (Agent.verify_consistent agent));
        ("lookup-answer", answer_selftest !sample_answer);
      ]
    end
  in
  {
    setup;
    e2e;
    layers;
    counts =
      [
        ("cycles", warm);
        ("applied", !warm_applied);
        ("tcam_ops", !warm_ops);
        ("lookup_misses", !warm_misses);
        ("publishes", Atomic.get tr.publishes);
      ];
    attempted = !submitted + !lookups;
    failed = !failed + !mismatches + (if consistent then 0 else 1);
    checks =
      [
        ("zero-failed-mods", !failed = 0);
        ("verify-consistent", consistent);
        ("lookup-answers", !mismatches = 0);
      ];
    selftests;
    info =
      [
        ("table", Printf.sprintf "ACL4 %d rules (+%d held out), capacity %d" rules held_out capacity);
        ("cycle", Printf.sprintf "%d Zipf(%g) lookups over %d flows, then remove+add" block skew flows);
        ("cycles", string_of_int cycles);
      ];
  }

(* -- rollout ---------------------------------------------------------- *)

(* A run rotates over [scenarios] fleets, each with its own seeded
   scenario, one rollout per cycle.  A single 300-flow scenario made the
   per-rollout cost a property of the seed: at the same calibrated speed
   two seeds' rollouts differed by 27% and their probe p99 by 40%, so
   ten seeds spread as widely as the bounds allow.  Four scenarios per run
   average that out. *)
module Rollout_w = struct
  let nodes = 24
  let flows = 300
  let batch = 8
  let capacity = 4 * flows
  let scenarios = 4
  let probes = 25  (* flows probed per rollout, both shards of the ingress *)
  let warm = 2 * scenarios  (* every fleet rolls out and back once *)
  let cycles_per_s = 100
end

let fleet_shards f =
  List.concat_map
    (fun n ->
      let svc = Fleet.node f n in
      List.init (Service.shards svc) (fun s -> (n, s, svc)))
    (List.init (Topo.nodes (Fleet.topo f)) Fun.id)

let fleet_tele f g =
  List.fold_left (fun a (_, s, svc) -> a + g (shard_telemetry svc s)) 0 (fleet_shards f)

let fleet_float f g =
  List.fold_left (fun a (_, s, svc) -> a +. g (shard_telemetry svc s)) 0.0 (fleet_shards f)

let fleet_hw f = fleet_float f Telemetry.hardware_ms_total
let fleet_firmware f = fleet_float f Telemetry.firmware_ms_total
let fleet_drain f = fleet_float f (fun t -> (Telemetry.wall_ms t).Fr_switch.Measure.total)

(* Fleet-level winner over a node's shard answers: highest priority, ties
   to the lower id (Fleet.lookup's rule). *)
let best a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (x : Rule.t), Some (y : Rule.t) ->
      if x.Rule.priority > y.Rule.priority
         || (x.Rule.priority = y.Rule.priority && x.Rule.id < y.Rule.id)
      then a
      else b

let run_rollout cfg =
  let open Rollout_w in
  let topo = Topo.make Topo.Ring nodes in
  let max_cycles =
    if cfg.gate then warm else warm + (cycles_per_s * int_of_float (Float.ceil cfg.seconds))
  in
  let prng = Rng.create ~seed:(cfg.seed + 29) in
  let dir name = Filename.concat cfg.work name in
  (* Per scenario: its two policies, and one pure-region probe packet per
     flow of each. *)
  let scen =
    Array.init scenarios (fun i ->
        let sc =
          Scenario.make ~flows ~reroute:(flows / 3) ~withdraw:(flows / 20)
            ~introduce:(flows / 20) ~waypoints:(flows / 10)
            ~seed:((cfg.seed * scenarios) + i) topo
        in
        let policies = [| sc.Scenario.old_policy; sc.Scenario.new_policy |] in
        let pure =
          Array.map
            (fun pol ->
              Array.of_list
                (List.filter_map
                   (fun (fl : Policy.flow) ->
                     Option.map (fun p -> (fl, p)) (Policy.packet_for prng ~all:pol fl))
                   pol))
            policies
        in
        (policies, pure))
  in
  let build ?journal i () =
    Fleet.of_policy ~domains ~capacity ?journal topo (fst scen.(i)).(0)
  in
  let fleets = Array.init scenarios (fun i -> build i ()) in
  (* [setup_s] is the set-up of the whole system: every fleet. *)
  let setup = Samples.create () in
  let rebuild () =
    ignore (timed_build setup (fun () -> Array.init scenarios (fun i -> build i ())))
  in
  let jdir i = dir (Printf.sprintf "twin-%d" i) in
  let twins =
    if cfg.trace then Some (Array.init scenarios (fun i -> build ~journal:(jdir i) i ()))
    else None
  in
  let all_shards = List.concat_map fleet_shards (Array.to_list fleets) in
  let compile_ms =
    if cfg.trace then begin
      let t0 = now_ns () in
      for n = 0 to nodes - 1 do
        ignore (Dag_build.compile_fast (Array.of_list (Fleet.rules fleets.(0) n)))
      done;
      (now_ns () -. t0) /. 1e6
    end
    else 0.0
  in
  let acc = new_acc () and tr = new_tr () in
  let failed = ref 0 and attempted = ref 0 and mismatches = ref 0 in
  let bad_rollouts = ref 0 and checked = ref 0 in
  let sample_answer = ref None in
  let last_plan = ref None in
  let c = ref 0 in
  let warm_applied = ref 0 and warm_rounds = ref 0 and warm_ops = ref 0 in
  let warm_misses = ref 0 in
  let accounted = ref 0.0 in
  let cycle ph =
    let f = !c mod scenarios and k_f = !c / scenarios in
    let fleet = fleets.(f) and policies, pure = scen.(f) in
    let src = k_f mod 2 in
    let ops0 = fleet_tele fleet Telemetry.tcam_ops in
    let moves0 = fleet_tele fleet Telemetry.moves in
    let hw0 = fleet_hw fleet in
    let sub0 = fleet_tele fleet Telemetry.submitted in
    let coal0 = fleet_tele fleet Telemetry.coalesced in
    let fw0 = fleet_firmware fleet and drain0 = if ph = Traced then fleet_drain fleet else 0.0 in
    (* Probe lookups on the ingress of the fleet's next flows in turn, both
       shards, against the policy its previous rollout installed.  Each is
       timed from an empty minor heap, so no collection lands inside it. *)
    let probed = ref [] in
    let l_total = ref 0.0 in
    for k = 0 to probes - 1 do
      let cands = pure.(src) in
      let fl, pkt = cands.(((k_f / 2 * probes) + k) mod Array.length cands) in
      match Fleet.stamp fleet fl.Policy.flow_id with
      | None -> ()
      | Some version ->
          let pkt = Policy.stamp_packet pkt ~version in
          let node = Policy.ingress fl in
          let svc = Fleet.node fleet node in
          let answers =
            List.init (Service.shards svc) (fun s ->
                let img = Service.published svc ~shard:s in
                Gc.minor ();
                let l0 = now_ns () in
                let ans = Image.lookup img pkt in
                let l1 = now_ns () in
                if ph = Plain then Samples.add acc.lookup_ns (l1 -. l0);
                l_total := !l_total +. (l1 -. l0);
                (img, ans))
          in
          probed := (fl, version, pkt, answers) :: !probed
    done;
    let tp = now_ns () in
    let plan =
      match
        Plan.make ~batch topo ~stamps:(Fleet.stamps fleet)
          ~old_policy:policies.(src) ~new_policy:policies.(1 - src)
      with
      | Ok p -> p
      | Error e -> failwith ("Plan.make: " ^ e)
    in
    let t1 = now_ns () in
    let rep = Fleet.execute fleet plan in
    let t2 = now_ns () in
    let applied = rep.Fleet.applied in
    attempted := !attempted + applied + rep.Fleet.failed;
    failed := !failed + rep.Fleet.failed;
    let ok_rollout =
      rep.Fleet.completed && rep.Fleet.failed = 0
      && Fleet.stamps fleet = Plan.stamps_after plan
    in
    if not ok_rollout then incr bad_rollouts;
    last_plan := Some (fleet, plan);
    let hw = fleet_hw fleet -. hw0 in
    let ops = fleet_tele fleet Telemetry.tcam_ops - ops0 in
    let n_lookups = List.fold_left (fun a (_, _, _, l) -> a + List.length l) 0 !probed in
    attempted := !attempted + n_lookups;
    (* Checks: every shard answer equals the backend on the same image, and
       the node-level winner is the flow's own rule at its stamped version. *)
    let misses = ref 0 in
    let backends = ref [] in
    let backend_of img =
      match List.assq_opt img !backends with
      | Some b -> b
      | None ->
          let b = Backend.of_image img in
          backends := (img, b) :: !backends;
          b
    in
    List.iter
      (fun ((fl : Policy.flow), version, pkt, answers) ->
        let winner =
          List.fold_left
            (fun w (img, ans) ->
              let backend = backend_of img in
              incr checked;
              if ans = None then incr misses;
              if not (answer_ok backend pkt (id_of ans)) then incr mismatches;
              if !sample_answer = None then sample_answer := Some (backend, pkt, id_of ans);
              if ph = Traced then begin
                let q0 = now_ns () in
                ignore (Backend.lookup backend pkt);
                Samples.add tr.backend_ns (now_ns () -. q0)
              end;
              best w ans)
            None answers
        in
        if id_of winner <> Policy.rule_id ~flow_id:fl.Policy.flow_id ~version then
          incr mismatches)
      !probed;
    let rounds_ms =
      List.fold_left (fun a (r : Fleet.round_stat) -> a +. r.Fleet.r_wall_ms) 0.0
        rep.Fleet.per_round
    in
    (* The cycle is the probe lookups, the plan and the rollout: the
       benchmark's own collections between probes are not in it. *)
    let cycle_ms = (!l_total +. (t2 -. tp)) /. 1e6 in
    record_cycle ~acc ~tr ph cycle_ms;
    (match ph with
    | Warm ->
        warm_applied := !warm_applied + applied;
        warm_rounds := !warm_rounds + List.length rep.Fleet.per_round;
        warm_ops := !warm_ops + ops;
        warm_misses := !warm_misses + !misses
    | Plain ->
        List.iter
          (fun (r : Fleet.round_stat) -> Samples.add acc.update_ms r.Fleet.r_wall_ms)
          rep.Fleet.per_round;
        Samples.add acc.update_span_ms ((t2 -. t1) /. 1e6);
        Samples.add acc.lookup_span_ns !l_total;
        acc.applied <- acc.applied + applied;
        acc.hw_ms <- acc.hw_ms +. hw
    | Traced -> ());
    (match (ph, twins) with
    | Traced, Some tws ->
        tr.t_loop_ms <- tr.t_loop_ms +. cycle_ms;
        accounted := !accounted +. ((t1 -. tp +. !l_total) /. 1e6) +. rounds_ms;
        Samples.add tr.plan_ms ((t1 -. tp) /. 1e6);
        List.iter
          (fun (r : Fleet.round_stat) -> Samples.add tr.round_ms r.Fleet.r_wall_ms)
          rep.Fleet.per_round;
        tr.firmware_ms <- tr.firmware_ms +. (fleet_firmware fleet -. fw0);
        tr.drain_ms <- tr.drain_ms +. (fleet_drain fleet -. drain0);
        tr.t_applied <- tr.t_applied + applied;
        tr.t_hw_ms <- tr.t_hw_ms +. hw;
        tr.tcam_ops <- tr.tcam_ops + ops;
        tr.moves <- tr.moves + (fleet_tele fleet Telemetry.moves - moves0);
        tr.submitted <- tr.submitted + (fleet_tele fleet Telemetry.submitted - sub0);
        tr.coalesced <- tr.coalesced + (fleet_tele fleet Telemetry.coalesced - coal0);
        tr.lookups <- tr.lookups + n_lookups;
        tr.misses <- tr.misses + !misses;
        let bytes0 = tree_sizes [] (jdir f) in
        let w0 = now_ns () in
        let trep = Fleet.execute tws.(f) plan in
        let w1 = now_ns () in
        if not (trep.Fleet.completed && trep.Fleet.failed = 0) then incr bad_rollouts;
        tr.journal_ms <- tr.journal_ms +. (((w1 -. w0) -. (t2 -. t1)) /. 1e6);
        tr.journal_bytes <- tr.journal_bytes + bytes_written bytes0 (tree_sizes [] (jdir f))
    | Traced, None -> ()
    | (Warm | Plain), Some tws ->
        let trep = Fleet.execute tws.(f) plan in
        if not (trep.Fleet.completed && trep.Fleet.failed = 0) then incr bad_rollouts
    | (Warm | Plain), None -> ());
    incr c
  in
  let observe () =
    List.iter (fun (_, s, svc) ->
        Agent.set_publish_observer (Shard.agent (Service.shard svc s))
          (Some (fun _ -> Atomic.incr tr.publishes)))
      all_shards
  in
  if cfg.gate then observe ();
  let cycles =
    drive cfg ~sys:fleets ~warm ~max_cycles ~setup_every:(8 * scenarios)
      ~heap_until:(32 * scenarios) ~calib_every:1 ~rebuild
      ~on_traced:(fun () -> observe (); gc_mark tr)
      ~cycle
  in
  (* A rollout is plan + its rounds + the probe lookups. *)
  let layers =
    if cfg.trace then layer_metrics ~acc ~tr ~compile_ms ~accounted_ms:!accounted else []
  in
  let e2e = if cfg.gate || cfg.trace then [] else e2e_metrics ~acc ~setup in
  let consistent =
    List.for_all
      (fun (_, s, svc) ->
        Result.is_ok (Agent.verify_consistent (Shard.agent (Service.shard svc s))))
      all_shards
  in
  let selftests =
    if cfg.gate then []
    else
      match !last_plan with
      | None -> [ ("stale-plan", false); ("stamps", false) ]
      | Some (fleet, plan) ->
          (* Flipping one recorded stamp must fail the stamps check, and
             re-driving an already-applied plan must report failures. *)
          let stamps = Fleet.stamps fleet in
          let corrupted =
            match stamps with
            | (fid, v) :: rest -> (fid, 1 - v) :: rest
            | [] -> []
          in
          let stamps_caught = corrupted <> Plan.stamps_after plan in
          let rep = Fleet.execute fleet plan in
          [
            ("stale-plan", not (rep.Fleet.completed && rep.Fleet.failed = 0));
            ("stamps", stamps_caught);
            ("lookup-answer", answer_selftest !sample_answer);
          ]
  in
  {
    setup;
    e2e;
    layers;
    counts =
      [
        ("rollouts", warm);
        ("applied", !warm_applied);
        ("rounds", !warm_rounds);
        ("tcam_ops", !warm_ops);
        ("probe_misses", !warm_misses);
        ("publishes", Atomic.get tr.publishes);
      ];
    attempted = !attempted;
    failed = !failed + !mismatches + !bad_rollouts + (if consistent then 0 else 1);
    checks =
      [
        ("rollouts-complete", !bad_rollouts = 0 && !failed = 0);
        ("verify-consistent", consistent);
        ("probe-answers", !mismatches = 0 && (cfg.gate || !checked > 0));
      ];
    selftests;
    info =
      [
        ( "fleets",
          Printf.sprintf "%d scenarios, each a ring of %d, %d flows, batch %d, capacity %d/shard"
            scenarios nodes flows batch capacity );
        ("rollouts", string_of_int cycles);
      ];
  }

(* -- entry point ------------------------------------------------------ *)

let usage =
  "bench.exe --workload (churn|serve|rollout) --seed N --seconds S --trace 0|1 \
   --work DIR [--gate]"

let parse () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and gate = ref false and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "churn | serve | rollout");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured loop length");
      ("--trace", Arg.Set_int trace, "1: per-layer timers");
      ("--work", Arg.Set_string work, "scratch directory");
      ("--gate", Arg.Set gate, "deterministic warm-up counts only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload [ "churn"; "serve"; "rollout" ]) then
    raise (Arg.Bad ("unknown workload " ^ !workload));
  if !seconds <= 0.0 then raise (Arg.Bad "--seconds must be positive");
  if !work = "" then raise (Arg.Bad "--work is required");
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    gate = !gate;
    work = !work;
  }

let print_result cfg r =
  let nproc = Domain.recommended_domain_count () in
  let command =
    Printf.sprintf "python3 perfbench/run.py --workload %s --seed %d --seconds %g --trace %d"
      cfg.workload cfg.seed cfg.seconds (if cfg.trace then 1 else 0)
  in
  Printf.printf "# %s  seed %d  nproc %d  domains %d  setup reps %d\n" cfg.workload
    cfg.seed nproc domains (Samples.count r.setup);
  Printf.printf "# regenerate: %s\n" command;
  List.iter (fun (k, v) -> Printf.printf "#   %s: %s\n" k v) r.info;
  if r.e2e <> [] then
    Printf.printf
      "# speed factor %.4f: calibration kernel median %.0f ns over %d samples, nominal %.0f ns;\n\
       #   each end-to-end sample is divided by the factor of the kernel runs within %g s of it\n"
      (Calib.factor ()) (median Calib.samples) (Samples.count Calib.samples) Calib.nominal_ns
      (Calib.window_ns /. 1e9);
  List.iter
    (fun m ->
      Printf.printf "  %-26s %16.4f %-10s n=%-8d raw %.4f\n" m.name m.value m.unit_ m.n m.raw)
    (r.e2e @ r.layers);
  List.iter
    (fun (k, ok) -> Printf.printf "  check %-20s %s\n" k (if ok then "pass" else "FAIL"))
    r.checks;
  List.iter
    (fun (k, ok) ->
      Printf.printf "  self-test %-16s %s\n" k
        (if ok then "corruption caught" else "NOT CAUGHT"))
    r.selftests;
  let ints l = json_obj (List.map (fun (k, v) -> (k, string_of_int v)) l) in
  let bools l = json_obj (List.map (fun (k, v) -> (k, if v then "true" else "false")) l) in
  let metrics l =
    json_obj
      (List.map
         (fun m ->
           ( m.name,
             json_obj
               [ ("value", json_float m.value); ("unit", json_str m.unit_); ("n", string_of_int m.n) ]
           ))
         l)
  in
  print_endline
    (json_obj
       [
         ("workload", json_str cfg.workload);
         ("seed", string_of_int cfg.seed);
         ("seconds", json_float cfg.seconds);
         ("trace", if cfg.trace then "1" else "0");
         ("gate", if cfg.gate then "true" else "false");
         ("nproc", string_of_int nproc);
         ("domains", string_of_int domains);
         ("command", json_str command);
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ("checks", bools r.checks);
         ("selftests", bools r.selftests);
         ("counts", ints (r.counts @ [ ("heap_words", !heap_peak) ]));
         ("e2e", metrics r.e2e);
         ("layers", metrics r.layers);
       ])

let () =
  match parse () with
  | exception Arg.Bad msg ->
      prerr_endline msg;
      prerr_endline usage;
      exit 2
  | exception Arg.Help msg ->
      print_string msg;
      exit 0
  | cfg -> (
      let run =
        match cfg.workload with
        | "churn" -> run_churn
        | "serve" -> run_serve
        | _ -> run_rollout
      in
      match run cfg with
      | r -> print_result cfg r
      | exception Unsupported msg ->
          prerr_endline ("unsupported quantile: " ^ msg);
          exit 3)
