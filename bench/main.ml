(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §5 for the experiment index), plus the
   ablations DESIGN.md §7 calls out and Bechamel micro-benchmarks of the
   core data-structure operations.

   Usage:  main.exe [--quick] [table2] [fig7] [fig8] [fig9] [ablation]
           [micro] [ctrl] [conform] [resil] [cache] [net] [degrade] [plane]

   With no section argument every section runs.  --quick restricts the
   sweeps to sizes <= 4000 (a couple of minutes); the full run covers the
   paper's 250..40k sizes. *)

open Fastrule

let seed = 42
let paper_sizes = [ 250; 500; 1_000; 2_000; 4_000; 10_000; 20_000; 40_000 ]
let quick = ref false
let sizes () = if !quick then [ 250; 500; 1_000; 2_000; 4_000 ] else paper_sizes

let fig9_sizes () = if !quick then [ 2_000 ] else [ 2_000; 10_000 ]

let backend = Store.Bit_backend

(* ------------------------------------------------------------------ *)
(* Shared experiment execution, memoised so fig7/fig8/fig9 reuse runs. *)

let row_memo : (Dataset.kind * int * bool, Experiment.row list) Hashtbl.t =
  Hashtbl.create 64

let rows_for kind n with_deletes =
  match Hashtbl.find_opt row_memo (kind, n, with_deletes) with
  | Some rows -> rows
  | None ->
      let spec =
        {
          Experiment.kind;
          n;
          updates = Experiment.updates_for n;
          with_deletes;
          seed;
        }
      in
      let rows =
        Experiment.run_spec spec ~algos:(Firmware.standard_algos backend)
      in
      Hashtbl.replace row_memo (kind, n, with_deletes) rows;
      rows

let find_algo rows name =
  List.find_opt (fun (r : Experiment.row) -> r.Experiment.algo = name) rows

(* A figure panel: one line per algorithm, one column per size. *)
let print_series ~metric ~label kinds_modes algos =
  List.iter
    (fun (kind, mode) ->
      Format.printf "@.-- %s, %s (%s; columns: %s) --@."
        (String.uppercase_ascii (Dataset.to_string kind))
        (if mode then "insert+delete" else "insert-only")
        label
        (String.concat " " (List.map string_of_int (sizes ())));
      List.iter
        (fun algo ->
          Format.printf "%-10s" algo;
          List.iter
            (fun n ->
              let rows = rows_for kind n mode in
              match find_algo rows algo with
              | None -> Format.printf " %10s" "-"
              | Some r -> Format.printf " %10.4f" (metric r))
            (sizes ());
          Format.printf "@.")
        algos)
    kinds_modes

(* ------------------------------------------------------------------ *)
(* Table II *)

let table2 () =
  Report.print_header
    "Table II: data-set characteristics (n, m, c_max, c_avg, d_in)";
  let entries =
    List.concat_map
      (fun kind ->
        List.map
          (fun n ->
            let table = Experiment.table_cached kind ~seed ~n in
            (kind, n, Dataset.stats table))
          (sizes ()))
      Dataset.all
  in
  Report.print_table2 entries;
  Format.printf
    "@.Paper bands: ACL c_avg 1.0-1.1 / c_max 2-6; FW c_avg 1.0-1.6 / c_max \
     3-15; ROUTE c_avg 1.1-1.7 / c_max 5-13.@."

(* ------------------------------------------------------------------ *)
(* Fig. 7: firmware time *)

let fig7 () =
  Report.print_header
    "Fig. 7: average firmware time per update (ms) - ACL4/FW5/ROUTE";
  (* Panels (a-c): insert-only; FR-SD omitted (identical to FR-SB without
     deletes), like the paper. *)
  print_series
    ~metric:(fun r -> r.Experiment.fw.Measure.mean)
    ~label:"firmware mean ms"
    (List.map (fun kind -> (kind, false)) [ Dataset.ACL4; Dataset.FW5; Dataset.ROUTE ])
    [ "naive"; "ruletris"; "fr-o"; "fr-sb" ];
  (* Panels (d-f): insert+delete; all five algorithms. *)
  print_series
    ~metric:(fun r -> r.Experiment.fw.Measure.mean)
    ~label:"firmware mean ms"
    (List.map (fun kind -> (kind, true)) [ Dataset.ACL4; Dataset.FW5; Dataset.ROUTE ])
    [ "naive"; "ruletris"; "fr-o"; "fr-sd"; "fr-sb" ];
  (* The error bars of the paper's figure: maxima. *)
  print_series
    ~metric:(fun r -> r.Experiment.fw.Measure.max)
    ~label:"firmware MAX ms"
    [ (Dataset.ACL4, false); (Dataset.ACL4, true) ]
    [ "naive"; "ruletris"; "fr-o"; "fr-sd"; "fr-sb" ];
  (* Headline claim: FastRule vs RuleTris at 1k. *)
  match
    ( find_algo (rows_for Dataset.ACL4 1_000 false) "ruletris",
      find_algo (rows_for Dataset.ACL4 1_000 false) "fr-o" )
  with
  | Some rt, Some fr when fr.Experiment.fw.Measure.mean > 0.0 ->
      Format.printf
        "@.Headline: FR-O firmware %.4f ms vs RuleTris %.4f ms at 1k (ACL4, \
         insert-only) -> %.0fx speedup (paper: ~100x)@."
        fr.Experiment.fw.Measure.mean rt.Experiment.fw.Measure.mean
        (rt.Experiment.fw.Measure.mean /. fr.Experiment.fw.Measure.mean)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Fig. 8: TCAM update time *)

let fig8 () =
  Report.print_header
    "Fig. 8: average TCAM update time per update (ms, 0.6 ms/op model) - \
     ROUTE & FW5, insert+delete";
  print_series
    ~metric:(fun r -> r.Experiment.tcam_avg_ms)
    ~label:"tcam avg ms"
    [ (Dataset.ROUTE, true); (Dataset.FW5, true) ]
    [ "naive"; "ruletris"; "fr-o"; "fr-sd"; "fr-sb" ];
  Format.printf
    "@.Expected shape (paper): FR-SB/FR-O/RuleTris comparable; FR-SD \
     fastest; FR-SB pays balance-delete movements; Naive far worst.@."

(* ------------------------------------------------------------------ *)
(* Fig. 9: layouts and delete behaviours across all table types *)

let fig9 () =
  Report.print_header
    "Fig. 9: firmware time across table types / layouts / delete behaviours";
  List.iter
    (fun n ->
      List.iter
        (fun with_deletes ->
          Format.printf "@.-- n=%d, %s (firmware mean ms) --@." n
            (if with_deletes then "insert+delete" else "insert-only");
          let algos =
            if with_deletes then [ "fr-o"; "fr-sd"; "fr-sb" ]
            else [ "fr-o"; "fr-sb" ]
          in
          Format.printf "%-10s" "type";
          List.iter (fun a -> Format.printf " %12s" a) algos;
          Format.printf " %10s@." "c_avg";
          List.iter
            (fun kind ->
              let rows = rows_for kind n with_deletes in
              let table = Experiment.table_cached kind ~seed ~n in
              let stats = Dataset.stats table in
              Format.printf "%-10s" (Dataset.to_string kind);
              List.iter
                (fun a ->
                  match find_algo rows a with
                  | None -> Format.printf " %12s" "-"
                  | Some r -> Format.printf " %12.5f" r.Experiment.fw.Measure.mean)
                algos;
              Format.printf " %10.2f@." stats.Fr_dag.Stats.c_avg)
            Dataset.all)
        [ false; true ])
    (fig9_sizes ())

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablation () =
  Report.print_header
    "Ablation A (SIII): metric back-ends (on-demand vs array vs BIT), ROUTE \
     insert-only, firmware mean ms";
  let ab_sizes =
    if !quick then [ 1_000; 4_000 ] else [ 1_000; 4_000; 10_000; 40_000 ]
  in
  Format.printf "%-12s" "backend";
  List.iter (fun n -> Format.printf " %10d" n) ab_sizes;
  Format.printf "@.";
  List.iter
    (fun b ->
      Format.printf "%-12s" (Store.backend_to_string b);
      List.iter
        (fun n ->
          let table = Experiment.table_cached Dataset.ROUTE ~seed ~n in
          let spec =
            {
              Experiment.kind = Dataset.ROUTE;
              n;
              updates = Experiment.updates_for n;
              with_deletes = false;
              seed;
            }
          in
          let stream = Experiment.stream_for spec in
          let row = Experiment.run_one ~table ~stream (Firmware.FR_O b) in
          Format.printf " %10.5f" row.Experiment.fw.Measure.mean)
        ab_sizes;
      Format.printf "@.")
    Store.all_backends;
  Report.print_header
    "Ablation B (SV): interleaved layout - one free slot every K entries, \
     ACL4 2k insert-only";
  let table = Experiment.table_cached Dataset.ACL4 ~seed ~n:2_000 in
  let spec =
    {
      Experiment.kind = Dataset.ACL4;
      n = 2_000;
      updates = Experiment.updates_for 2_000;
      with_deletes = false;
      seed;
    }
  in
  let stream = Experiment.stream_for spec in
  Format.printf "%-16s %12s %12s %10s@." "layout" "fw-mean(ms)" "tcam-avg(ms)"
    "moves";
  List.iter
    (fun layout ->
      let row =
        Experiment.run_one ~layout_override:layout ~table ~stream
          (Firmware.FR_O backend)
      in
      Format.printf "%-16s %12.5f %12.4f %10d@." (Layout.to_string layout)
        row.Experiment.fw.Measure.mean row.Experiment.tcam_avg_ms
        row.Experiment.moves)
    [
      Layout.Original;
      Layout.Interleaved 8;
      Layout.Interleaved 4;
      Layout.Interleaved 2;
      Layout.Interleaved 1;
    ];
  Report.print_header
    "Ablation C: control-loop sojourn time (queue simulation), ROUTE 2k \
     insert+delete, Poisson arrivals";
  let table = Experiment.table_cached Dataset.ROUTE ~seed ~n:2_000 in
  let spec =
    {
      Experiment.kind = Dataset.ROUTE;
      n = 2_000;
      updates = Experiment.updates_for 2_000;
      with_deletes = true;
      seed;
    }
  in
  let stream = Experiment.stream_for spec in
  (* The modelled clock (TCAM ms only) is a function of the seed; the
     wall clock adds measured firmware time and moves between runs. *)
  let runs =
    List.map
      (fun kind ->
        let cap = match kind with Firmware.Naive -> Some 60 | _ -> None in
        let n_upd = Option.value cap ~default:(List.length stream) in
        let run = Firmware.create kind ~table ~tcam_size:(3 * 2_000) () in
        ignore (Firmware.exec_all run (List.filteri (fun i _ -> i < n_upd) stream));
        (kind, run))
      (Firmware.standard_algos backend)
  in
  let table_of clock service =
    Format.printf "%-10s %-9s %12s | %18s %18s@." "algo" "clock" "sat.rate(/s)"
      "p99 sojourn @400/s" "p99 sojourn @1200/s";
    List.iter
      (fun (kind, run) ->
        let svc = service run in
        let sojourn rate =
          let r =
            Queue_sim.simulate (Rng.create ~seed:4242) ~service_ms:svc
              ~arrival:(Queue_sim.Poisson rate) ~count:3_000 ()
          in
          r.Queue_sim.p99_sojourn_ms
        in
        let sat = Queue_sim.saturation_rate ~service_ms:svc in
        let show rate =
          if sat <= rate then "(saturated)"
          else Printf.sprintf "%.2f ms" (sojourn rate)
        in
        Format.printf "%-10s %-9s %12.0f | %18s %18s@."
          (Firmware.algo_kind_name kind) clock sat (show 400.0) (show 1200.0))
      runs
  in
  table_of "modelled" (fun run -> Queue_sim.tcam_times_of_run run);
  Format.printf "wall clock: measured firmware + modelled TCAM ms (volatile)@.";
  table_of "wall" (fun run -> Queue_sim.service_times_of_run run);
  Report.print_header
    "Ablation D: compiled-dependency updates (agent path: policy compiler \
     + scheduler per insertion), FW5";
  Format.printf "%-8s %14s %14s %12s@." "n" "add fw (ms)" "tcam avg (ms)"
    "moves/add";
  List.iter
    (fun n ->
      let rules = Dataset.generate Dataset.FW5 ~seed ~n:(2 * n) in
      let initial = Array.sub rules 0 n in
      let agent = Agent.of_rules ~capacity:(3 * n) initial in
      let fw0 = Agent.firmware_ms_total agent in
      let added = ref 0 in
      for i = n to (2 * n) - 1 do
        match Agent.apply agent (Agent.Add rules.(i)) with
        | Ok () -> incr added
        | Error _ -> ()
      done;
      let per_add =
        (Agent.firmware_ms_total agent -. fw0) /. float_of_int (max 1 !added)
      in
      Format.printf "%-8d %14.4f %14.4f %12.2f@." n per_add
        (Agent.tcam_ms_total agent /. float_of_int (max 1 !added))
        (float_of_int (Tcam.moves_issued (Agent.tcam agent))
        /. float_of_int (max 1 !added)))
    (if !quick then [ 500; 2_000 ] else [ 500; 2_000; 8_000 ])

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

let micro () =
  Report.print_header
    "Micro-benchmarks (Bechamel): per-operation cost of the core pieces";
  let open Bechamel in
  let n = 4096 in
  let rng = Rng.create ~seed in
  let mt = Min_tree.create n ~init:8 in
  for i = 0 to n - 1 do
    Min_tree.set mt i (Rng.int rng 64)
  done;
  let arr = Min_tree.to_array mt in
  (* A mid-size synthetic table for metric/scheduler micro-costs. *)
  let table = Experiment.table_cached Dataset.FW5 ~seed ~n:2_000 in
  let tcam2 =
    Layout.place Layout.Original ~tcam_size:4_096 ~order:table.Dataset.order
  in
  let graph2 = Graph.copy table.Dataset.graph in
  let fr = Greedy.create ~backend ~graph:graph2 ~tcam:tcam2 () in
  let counter = ref 0 in
  let tests =
    Test.make_grouped ~name:"fastrule"
      [
        Test.make ~name:"min_tree.set (log^2 n)"
          (Staged.stage (fun () ->
               incr counter;
               Min_tree.set mt (!counter * 37 mod n) (!counter mod 64)));
        Test.make ~name:"min_tree.min_in (log n)"
          (Staged.stage (fun () -> ignore (Min_tree.min_in mt ~lo:17 ~hi:(n - 19))));
        Test.make ~name:"array scan min (n)"
          (Staged.stage (fun () ->
               let best = ref max_int in
               for i = 17 to n - 19 do
                 if arr.(i) < !best then best := arr.(i)
               done;
               ignore !best));
        Test.make ~name:"metric chain walk (c_avg)"
          (Staged.stage (fun () ->
               incr counter;
               ignore
                 (Metric.compute Dir.Up graph2 tcam2 ~addr:(!counter * 97 mod 2_000))));
        Test.make ~name:"store.min_in over full table"
          (Staged.stage (fun () ->
               ignore (Store.min_in (Greedy.store fr) ~lo:0 ~hi:4_095)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2_000 ~quota:(Time.second 0.4) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let entries =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with Some (v :: _) -> v | _ -> nan
        in
        (name, ns) :: acc)
      res []
  in
  List.iter
    (fun (name, ns) -> Format.printf "%-45s %12.1f ns/op@." name ns)
    (List.sort compare entries)

(* ------------------------------------------------------------------ *)
(* Control plane: multi-shard churn through Fr_ctrl *)

let ctrl () =
  Report.print_header
    "Control plane: 4-shard churn through Fr_ctrl (coalescing queues + \
     per-mod drains), FW5";
  let ops = 10_000 in
  let spec =
    {
      Churn.kind = Dataset.FW5;
      initial = 4_000;
      ops;
      shards = 4;
      (* Must hold a whole preload even under a maximally skewed routing
         policy (prefix locality does skew FW5); overflow then surfaces
         as per-shard failures instead of a preload abort. *)
      capacity = 6_000;
      batch = 64;
      seed;
    }
  in
  let sum svc f =
    let acc = ref 0 in
    for s = 0 to Ctrl.shards svc - 1 do
      acc := !acc + f (Shard.telemetry (Ctrl.shard svc s))
    done;
    !acc
  in
  let sumf svc f =
    let acc = ref 0.0 in
    for s = 0 to Ctrl.shards svc - 1 do
      acc := !acc +. f (Shard.telemetry (Ctrl.shard svc s))
    done;
    !acc
  in
  (* One row per routing policy; "/r1" keeps the BENCH_ctrl.json names. *)
  let scenarios =
    [ ("hash/r1", Partition.Hash_id); ("prefix8/r1", Partition.Dst_prefix 8) ]
  in
  Format.printf "%-12s %8s %8s %8s %7s %9s %8s %9s %9s %9s@." "scenario"
    "submit" "coalesce" "applied" "failed" "tcam-ops" "fw(ms)" "hw(ms)"
    "p50(ms)" "p99(ms)";
  let results =
    List.map
      (fun (name, policy) ->
        let r = Churn.run ~policy spec in
        let svc = r.Churn.service in
        let w = r.Churn.flush_wall_ms in
        Format.printf "%-12s %8d %8d %8d %7d %9d %8.2f %9.1f %9.3f %9.3f@."
          name r.Churn.submitted r.Churn.coalesced r.Churn.applied
          r.Churn.failed
          (sum svc Telemetry.tcam_ops)
          (sumf svc Telemetry.firmware_ms_total)
          (sumf svc Telemetry.hardware_ms_total)
          w.Measure.p50 w.Measure.p99;
        (name, r))
      scenarios
  in
  (* Parallel flush sweep: kind x size x domains, 8 shards.  The drain
     results are identical across domain counts by construction (the
     deterministic join) — what varies is wall-clock, and only on
     machines that actually have spare cores: on a single-core host the
     table records parity, which is the honest baseline the trajectory
     starts from. *)
  let par_shards = 8 in
  let par_kinds =
    if !quick then [ Dataset.FW5 ] else [ Dataset.FW5; Dataset.ACL4 ]
  in
  let par_sizes = if !quick then [ 4_000 ] else [ 10_000; 40_000 ] in
  let par_domains = [ 1; 2; 4 ] in
  Format.printf
    "@.parallel flush: domain-per-shard drains, %d shards (cores here: %d)@."
    par_shards (Pool.recommended ());
  Format.printf "%-6s %8s %8s %8s %8s %11s %9s %9s %8s@." "kind" "size"
    "domains" "flushes" "applied" "drain(ms)" "p50(ms)" "p99(ms)" "speedup";
  let par_rows =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun size ->
            let seq_wall = ref nan in
            let seq_applied = ref (-1) in
            List.map
              (fun domains ->
                let spec =
                  {
                    Churn.kind;
                    initial = size;
                    ops = max 2_000 (size / 4);
                    shards = par_shards;
                    capacity = size / 2;
                    batch = 256;
                    seed;
                  }
                in
                let r = Churn.run ~domains spec in
                let w = r.Churn.flush_wall_ms in
                let total = float_of_int w.Measure.count *. w.Measure.mean in
                if domains = 1 then begin
                  seq_wall := total;
                  seq_applied := r.Churn.applied
                end
                else if r.Churn.applied <> !seq_applied then
                  Format.printf
                    "WARNING: %s/%d domains=%d applied %d <> sequential %d \
                     (determinism breach)@."
                    (Dataset.to_string kind) size domains r.Churn.applied
                    !seq_applied;
                let speedup = !seq_wall /. total in
                Format.printf
                  "%-6s %8d %8d %8d %8d %11.1f %9.3f %9.3f %7.2fx@."
                  (Dataset.to_string kind) size domains r.Churn.flushes
                  r.Churn.applied total w.Measure.p50 w.Measure.p99 speedup;
                (kind, size, domains, r, total, speedup))
              par_domains)
          par_sizes)
      par_kinds
  in
  (* One-line regression sentinel: sequential vs widest at the biggest
     sweep point, visible without opening the JSON. *)
  (let top_kind = List.hd par_kinds in
   let top_size = List.nth par_sizes (List.length par_sizes - 1) in
   let top_domains = List.nth par_domains (List.length par_domains - 1) in
   let wall_of d =
     List.find_map
       (fun (k, s, dm, _, total, _) ->
         if k = top_kind && s = top_size && dm = d then Some total else None)
       par_rows
   in
   match (wall_of 1, wall_of top_domains) with
   | Some seq_ms, Some par_ms ->
       Format.printf
         "@.speedup summary (%s, %d rules): %.1f ms seq / %.1f ms at %d \
          domains = %.2fx@."
         (Dataset.to_string top_kind) top_size seq_ms par_ms top_domains
         (seq_ms /. par_ms)
   | _ -> ());
  (* Machine-readable dump: headline figures per scenario plus the full
     per-shard telemetry (schema in doc/CTRL.md). *)
  let open Telemetry.Json in
  let doc =
    Obj
      [
        ("bench", Str "ctrl");
        ("algo", Str "fr-o");
        ("kind", Str (Dataset.to_string spec.Churn.kind));
        ("shards", Int spec.Churn.shards);
        ("ops", Int ops);
        ( "scenarios",
          List
            (List.map
               (fun (name, (r : Churn.result)) ->
                 let svc = r.Churn.service in
                 Obj
                   [
                     ("scenario", Str name);
                     ("algo", Str "fr-o");
                     ("ops", Int ops);
                     ("submitted", Int r.Churn.submitted);
                     ("applied", Int r.Churn.applied);
                     ("failed", Int r.Churn.failed);
                     ("coalesced", Int r.Churn.coalesced);
                     ("flushes", Int r.Churn.flushes);
                     ("flush_wall_p50_ms", Float r.Churn.flush_wall_ms.Measure.p50);
                     ("flush_wall_p99_ms", Float r.Churn.flush_wall_ms.Measure.p99);
                     ("tcam_ops", Int (sum svc Telemetry.tcam_ops));
                     ("firmware_ms", Float (sumf svc Telemetry.firmware_ms_total));
                     ("hardware_ms", Float (sumf svc Telemetry.hardware_ms_total));
                     ("service", Ctrl.to_json ~scenario:name svc);
                   ])
               results) );
        ( "parallel",
          List
            (List.map
               (fun (kind, size, domains, (r : Churn.result), total, speedup) ->
                 let w = r.Churn.flush_wall_ms in
                 Obj
                   [
                     ("kind", Str (Dataset.to_string kind));
                     ("size", Int size);
                     ("domains", Int domains);
                     ("shards", Int par_shards);
                     ("flushes", Int r.Churn.flushes);
                     ("applied", Int r.Churn.applied);
                     ("drain_wall_total_ms", Float total);
                     ("flush_wall_p50_ms", Float w.Measure.p50);
                     ("flush_wall_p99_ms", Float w.Measure.p99);
                     ("speedup_vs_seq", Float speedup);
                   ])
               par_rows) );
        ("cores", Int (Pool.recommended ()));
      ]
  in
  let oc = open_out "BENCH_ctrl.json" in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote BENCH_ctrl.json (%d scenarios)@."
    (List.length results)

(* ------------------------------------------------------------------ *)
(* conform: throughput of the differential oracle — how many scheduler-
   emitted ops the shadow-table check validates per second, and what the
   whole five-way cross-examination costs over a checked run. *)

let conform () =
  let events = if !quick then 150 else 400 in
  let initial = if !quick then 300 else 500 in
  let specs = [ Dataset.ACL4; Dataset.FW5; Dataset.ROUTE ] in
  Format.printf "%-7s %7s %7s %10s %10s %12s %9s %8s@." "kind" "events"
    "checked" "verify-ms" "wall-ms" "checked/s" "overhead" "diverge";
  let results =
    List.map
      (fun kind ->
        let trace =
          Trace.generate ~kind ~seed ~initial ~pool:(2 * initial)
            ~capacity:(4 * initial) ~events ()
        in
        let checked = Oracle.run trace in
        let unchecked =
          Oracle.run
            ~config:{ Oracle.default_config with Oracle.verify = false }
            trace
        in
        let rate =
          if checked.Oracle.verify_ms > 0. then
            float_of_int checked.Oracle.checked_ops
            /. (checked.Oracle.verify_ms /. 1000.)
          else 0.
        in
        let overhead =
          if unchecked.Oracle.wall_ms > 0. then
            100.
            *. (checked.Oracle.wall_ms -. unchecked.Oracle.wall_ms)
            /. unchecked.Oracle.wall_ms
          else 0.
        in
        let diverg = List.length checked.Oracle.divergences in
        Format.printf "%-7s %7d %7d %10.2f %10.1f %12.0f %8.1f%% %8d@."
          (Dataset.to_string kind) events checked.Oracle.checked_ops
          checked.Oracle.verify_ms checked.Oracle.wall_ms rate overhead diverg;
        if diverg > 0 then
          Format.printf "!! conformance divergence on a clean run — %a@."
            Oracle.pp_report checked;
        (kind, checked, unchecked, rate, overhead))
      specs
  in
  let open Telemetry.Json in
  let doc =
    Obj
      [
        ("bench", Str "conform");
        ("seed", Int seed);
        ("events", Int events);
        ("initial", Int initial);
        ( "runs",
          List
            (List.map
               (fun (kind, checked, unchecked, rate, overhead) ->
                 Obj
                   [
                     ("kind", Str (Dataset.to_string kind));
                     ("schedulers", Int (List.length checked.Oracle.columns));
                     ("events", Int checked.Oracle.events_run);
                     ("probes", Int checked.Oracle.probes_run);
                     ("checked_ops", Int checked.Oracle.checked_ops);
                     ("verify_ms", Float checked.Oracle.verify_ms);
                     ("checked_ops_per_s", Float rate);
                     ("wall_ms_checked", Float checked.Oracle.wall_ms);
                     ("wall_ms_unchecked", Float unchecked.Oracle.wall_ms);
                     ("verify_overhead_pct", Float overhead);
                     ( "divergences",
                       Int (List.length checked.Oracle.divergences) );
                   ])
               results) );
      ]
  in
  let oc = open_out "BENCH_conform.json" in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote BENCH_conform.json (%d workloads)@."
    (List.length results)

(* ------------------------------------------------------------------ *)
(* resil: the cost of surviving — crash-recovery time against table
   size, supervisor retry overhead against injected fault rates, and the
   circuit breaker quarantining a permanently-faulted shard while its
   siblings keep serving. *)

let resil () =
  let rm_rf dir =
    try
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      Sys.rmdir dir
    with Sys_error _ -> ()
  in
  let open Telemetry.Json in
  (* -- recovery time vs table kind and size ------------------------- *)
  (* ClassBench-style kinds with genuinely different dependency shapes,
     swept to the paper's 40k-rule scale. *)
  let rec_kinds =
    if !quick then [ Dataset.ACL4 ]
    else [ Dataset.ACL4; Dataset.FW5; Dataset.ROUTE ]
  in
  let rec_sizes =
    if !quick then [ 500; 2_000 ] else [ 1_000; 4_000; 16_000; 40_000 ]
  in
  Format.printf "%-6s %-8s %9s %9s %9s %8s %10s@." "kind" "initial" "drains"
    "mods" "requeued" "rules" "recover-ms";
  let recovery_rows =
    List.concat_map
      (fun kind ->
        List.map
          (fun n ->
            let dir = Journal.fresh_dir ~prefix:"fr-bench-resil" in
            let spec =
              {
                Churn.kind;
                initial = n;
                ops = n / 2;
                shards = 2;
                capacity = 2 * n;
                batch = 64;
                seed;
              }
            in
            let r =
              Churn.run ~journal:dir ~stop_after_flushes:(n / 256) spec
            in
            Ctrl.simulate_crash ~mid_drain:true r.Churn.service;
            let rec_, ms =
              Measure.time_ms (fun () -> Ctrl.recover ~journal:dir ())
            in
            let kname = Dataset.to_string kind in
            let row =
              match rec_ with
              | Error e ->
                  Format.printf "%-6s %-8d recovery FAILED: %s@." kname n e;
                  Obj [ ("kind", Str kname); ("initial", Int n); ("error", Str e) ]
              | Ok rc ->
                  Format.printf "%-6s %-8d %9d %9d %9d %8d %10.1f@." kname n
                    rc.Ctrl.replayed_drains rc.Ctrl.replayed_mods
                    rc.Ctrl.requeued
                    (Ctrl.rule_count rc.Ctrl.service)
                    ms;
                  Obj
                    [
                      ("kind", Str kname);
                      ("initial", Int n);
                      ("replayed_drains", Int rc.Ctrl.replayed_drains);
                      ("replayed_mods", Int rc.Ctrl.replayed_mods);
                      ("requeued", Int rc.Ctrl.requeued);
                      ("rules", Int (Ctrl.rule_count rc.Ctrl.service));
                      ("recover_ms", Float ms);
                      ("warnings", Int (List.length rc.Ctrl.warnings));
                    ]
            in
            rm_rf dir;
            row)
          rec_sizes)
      rec_kinds
  in
  (* -- retry overhead vs fault rate -------------------------------- *)
  let fault_rates = [ 0.0; 0.01; 0.05 ] in
  let churn_spec =
    {
      Churn.kind = Dataset.ACL4;
      initial = (if !quick then 500 else 2_000);
      ops = (if !quick then 1_000 else 5_000);
      shards = 4;
      capacity = (if !quick then 2_000 else 8_000);
      batch = 64;
      seed;
    }
  in
  Format.printf "@.%-7s %8s %7s %7s %8s %11s %10s@." "fault-p" "applied"
    "failed" "retries" "re-ops" "backoff-ms" "p99(ms)";
  let retry_rows =
    List.map
      (fun p ->
        let configure svc =
          if p > 0. then
            for s = 0 to Ctrl.shards svc - 1 do
              Ctrl.set_fault svc ~shard:s
                (Some (Fault.create ~fail_prob:p ~seed:(seed + s) ()))
            done
        in
        let r = Churn.run ~configure churn_spec in
        let svc = r.Churn.service in
        let sum f =
          let acc = ref 0 in
          for s = 0 to Ctrl.shards svc - 1 do
            acc := !acc + f (Shard.telemetry (Ctrl.shard svc s))
          done;
          !acc
        in
        let backoff =
          let acc = ref 0.0 in
          for s = 0 to Ctrl.shards svc - 1 do
            acc :=
              !acc +. Telemetry.backoff_ms_total (Shard.telemetry (Ctrl.shard svc s))
          done;
          !acc
        in
        Format.printf "%-7.2f %8d %7d %7d %8d %11.1f %10.3f@." p
          r.Churn.applied r.Churn.failed r.Churn.retries
          (sum Telemetry.retried_ops)
          backoff r.Churn.flush_wall_ms.Measure.p99;
        Obj
          [
            ("fault_prob", Float p);
            ("applied", Int r.Churn.applied);
            ("failed", Int r.Churn.failed);
            ("retries", Int r.Churn.retries);
            ("retried_ops", Int (sum Telemetry.retried_ops));
            ("backoff_ms", Float backoff);
            ("flush_wall_p99_ms", Float r.Churn.flush_wall_ms.Measure.p99);
          ])
      fault_rates
  in
  (* -- breaker: one shard permanently faulted ----------------------- *)
  let resil_policy =
    { Ctrl.default_resil with Ctrl.queue_bound = 32; breaker_threshold = 2 }
  in
  let configure svc =
    Ctrl.set_fault svc ~shard:0 (Some (Fault.create ~fail_prob:1.0 ~seed ()))
  in
  let r = Churn.run ~resil:resil_policy ~configure churn_spec in
  let svc = r.Churn.service in
  let shard0 = Shard.telemetry (Ctrl.shard svc 0) in
  let sibling_applied =
    let acc = ref 0 in
    for s = 1 to Ctrl.shards svc - 1 do
      acc := !acc + Telemetry.applied (Shard.telemetry (Ctrl.shard svc s))
    done;
    !acc
  in
  Format.printf
    "@.breaker: shard 0 at fault-p 1.0 — state %s, %d opens, %d shed; \
     shard 0 applied %d, siblings applied %d@."
    (Telemetry.breaker_state shard0)
    r.Churn.breaker_opens r.Churn.shed
    (Telemetry.applied shard0)
    sibling_applied;
  let breaker_row =
    Obj
      [
        ("shard0_state", Str (Telemetry.breaker_state shard0));
        ("breaker_opens", Int r.Churn.breaker_opens);
        ("shed", Int r.Churn.shed);
        ("shard0_applied", Int (Telemetry.applied shard0));
        ("sibling_applied", Int sibling_applied);
        ("failed", Int r.Churn.failed);
      ]
  in
  (* -- failover: graceful degradation under a persistent slow shard -- *)
  let failover_resil =
    {
      Ctrl.default_resil with
      Ctrl.failover = true;
      slow_drain_ms = 2.0;
      breaker_slow_threshold = 2;
      breaker_cooldown = 2;
    }
  in
  let fo_configure svc =
    Ctrl.set_fault svc ~shard:0 (Some (Fault.create ~slow_ms:8.0 ~seed ()))
  in
  let fo = Churn.run ~resil:failover_resil ~configure:fo_configure churn_spec in
  let fo_svc = fo.Churn.service in
  (* Heal and flush until the overlay drains home — the recovery half of
     the failover loop, timed. *)
  Ctrl.set_fault fo_svc ~shard:0 None;
  let heal_flushes = ref 0 in
  let (), heal_ms =
    Measure.time_ms (fun () ->
        while
          (Ctrl.diverted_count fo_svc > 0 || Ctrl.pending fo_svc > 0)
          && !heal_flushes < 100
        do
          ignore (Ctrl.flush fo_svc);
          incr heal_flushes
        done)
  in
  Format.printf
    "@.failover: slow shard 0 — %d diverted, %d shed, %d failed; healed in \
     %d flushes (%.1f ms), %d residual diverted@."
    fo.Churn.diverted fo.Churn.shed fo.Churn.failed !heal_flushes heal_ms
    (Ctrl.diverted_count fo_svc);
  let fo_rebalanced =
    let acc = ref 0 in
    for s = 0 to Ctrl.shards fo_svc - 1 do
      acc := !acc + Telemetry.rebalanced (Shard.telemetry (Ctrl.shard fo_svc s))
    done;
    !acc
  in
  let failover_row =
    Obj
      [
        ("diverted", Int fo.Churn.diverted);
        ("rebalanced", Int fo_rebalanced);
        ("shed", Int fo.Churn.shed);
        ("failed", Int fo.Churn.failed);
        ("breaker_opens", Int fo.Churn.breaker_opens);
        ("heal_flushes", Int !heal_flushes);
        ("heal_ms", Float heal_ms);
        ("residual_diverted", Int (Ctrl.diverted_count fo_svc));
      ]
  in
  let doc =
    Obj
      [
        ("bench", Str "resil");
        ("seed", Int seed);
        ("recovery", List recovery_rows);
        ("retry", List retry_rows);
        ("breaker", breaker_row);
        ("failover", failover_row);
      ]
  in
  let oc = open_out "BENCH_resil.json" in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote BENCH_resil.json@."

(* ------------------------------------------------------------------ *)
(* cache: the TCAM-as-cache tier's hit-rate x update-cost frontier.
   Sweeps Zipf skew x cache size x scheduler: higher skew concentrates
   the access stream so a small cache earns its keep, while the
   scheduler choice prices the admission/eviction churn each flush
   round pays in TCAM moves.  Conformance is the test suite's job
   (cache-tier oracle); here checking is off so the numbers are pure
   cache mechanics. *)

let cache () =
  let skews = if !quick then [ 0.0; 1.1 ] else [ 0.0; 0.8; 1.2 ] in
  let slot_sizes = if !quick then [ 128 ] else [ 256; 1_024 ] in
  let n = if !quick then 1_000 else 4_000 in
  let flows = if !quick then 50_000 else 200_000 in
  let accesses = if !quick then 3_000 else 12_000 in
  Format.printf "@.== cache: hit-rate x update-cost frontier ==@.";
  Format.printf "table %s n=%d, %d flows, %d accesses, policy %s@.@."
    (Dataset.to_string Dataset.ACL4)
    n flows accesses
    (Cache_policy.kind_to_string Cache_policy.Lru);
  let results =
    List.concat_map
      (fun skew ->
        List.concat_map
          (fun slots ->
            let spec =
              {
                Cache_driver.default_spec with
                Cache_driver.n;
                seed;
                flows;
                skew;
                accesses;
                slots;
              }
            in
            List.map
              (fun algo ->
                let r = Cache_driver.run ~algo ~check:false ~probes:0 spec in
                Format.printf "%a" Cache_driver.pp_result r;
                r)
              (Firmware.standard_algos backend))
          slot_sizes)
      skews
  in
  let open Telemetry.Json in
  let doc =
    Obj
      [
        ("bench", Str "cache");
        ("quick", Bool !quick);
        ("seed", Int seed);
        ("rows", List (List.map Cache_driver.result_json results));
      ]
  in
  let oc = open_out "BENCH_cache.json" in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote BENCH_cache.json (%d rows)@." (List.length results)

(* ------------------------------------------------------------------ *)
(* net: the network-wide rollout planner's cost surface.  Sweeps
   topology size x per-switch batch budget: more switches mean longer
   paths (more mods per flow), while a smaller batch stretches the same
   mod set over more rounds — the makespan is the rollout's wall clock
   through real per-switch services, and the per-round touched-switch
   counts show how wide each round fans out.  Consistency is the test
   suite's job (net oracle); here checking is off so the numbers are
   pure rollout mechanics. *)

let net () =
  let shapes =
    if !quick then [ Net_topo.Ring ] else [ Net_topo.Line; Net_topo.Ring; Net_topo.Tree ]
  in
  let node_counts = if !quick then [ 6; 10 ] else [ 6; 12; 24 ] in
  let batches = if !quick then [ 2; 8 ] else [ 1; 4; 16 ] in
  Format.printf "@.== net: rollout rounds x makespan ==@.";
  let rows =
    List.concat_map
      (fun shape ->
        List.concat_map
          (fun nodes ->
            List.map
              (fun batch ->
                let topo = Net_topo.make shape nodes in
                let flows = nodes in
                let sc =
                  Net_scenario.make ~flows ~reroute:(flows / 3)
                    ~withdraw:1 ~introduce:1 ~waypoints:2 ~seed topo
                in
                let plan =
                  match Net_scenario.plan ~batch sc with
                  | Ok p -> p
                  | Error e -> failwith e
                in
                let fleet =
                  Net.of_policy ~capacity:(4 * flows) topo sc.old_policy
                in
                let report = Net.execute fleet plan in
                assert (report.Net.completed && report.Net.failed = 0);
                Format.printf
                  "%-5s %3d nodes  batch %2d: %2d rounds  %3d mods  \
                   makespan %6.2f ms@."
                  (Net_topo.shape_name topo) nodes batch
                  (Net_plan.num_rounds plan)
                  report.Net.applied report.Net.wall_ms;
                let open Telemetry.Json in
                Obj
                  [
                    ("shape", Str (Net_topo.shape_name topo));
                    ("nodes", Int nodes);
                    ("flows", Int flows);
                    ("batch", Int batch);
                    ("seed", Int seed);
                    ("domains", Int (Net.domains fleet));
                    ("rounds", Int (Net_plan.num_rounds plan));
                    ("total_mods", Int (Net_plan.total_mods plan));
                    ("applied", Int report.Net.applied);
                    ("makespan_ms", Float report.Net.wall_ms);
                    ( "round_touched",
                      List
                        (Stdlib.List.map
                           (fun (s : Net.round_stat) -> Int s.Net.r_switches)
                           report.Net.per_round) );
                    ( "round_mods",
                      List
                        (Stdlib.List.map
                           (fun (s : Net.round_stat) -> Int s.Net.r_mods)
                           report.Net.per_round) );
                  ])
              batches)
          node_counts)
      shapes
  in
  let open Telemetry.Json in
  let doc =
    Obj
      [
        ("bench", Str "net");
        ("quick", Bool !quick);
        ("seed", Int seed);
        ("rows", List rows);
      ]
  in
  let oc = open_out "BENCH_net.json" in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote BENCH_net.json (%d rows)@."
    (Stdlib.List.length rows)

(* ------------------------------------------------------------------ *)
(* degrade: churn cost on dead-row hardware.  Sweeps dead-fraction x
   scheduler: a seeded stuck bank condemns a fraction of every shard's
   rows before the stream starts, the firmware discovers the holes
   through write failures and packs around them, and the sweep prices
   the overhead — discovery retries, extra moves, flush wall — against
   the healthy frac-0 baseline.  Correctness is the test suite's job
   (degraded oracle); here the numbers are pure mechanics. *)

let degrade () =
  let fracs = if !quick then [ 0.0; 0.10 ] else [ 0.0; 0.05; 0.10; 0.20 ] in
  let shards = 3 in
  let n = if !quick then 240 else 900 in
  let ops = if !quick then 400 else 2_000 in
  let capacity = if !quick then 160 else 600 in
  let batch = 64 in
  Format.printf "@.== degrade: churn cost on dead-row hardware ==@.";
  Format.printf "%d shards x %d slots, %d preloaded, %d ops in windows of %d@.@."
    shards capacity n ops batch;
  let resil =
    { Ctrl.default_resil with Ctrl.failover = true; retry_budget = 8 }
  in
  let stuck_bank ~frac s =
    let rows = max 1 (int_of_float (frac *. float_of_int capacity)) in
    let rng = Rng.create ~seed:(seed lxor 0xdead lxor (s * 0x9e37)) in
    let tbl = Hashtbl.create rows in
    while Hashtbl.length tbl < rows do
      Hashtbl.replace tbl (Rng.int rng capacity) ()
    done;
    Hashtbl.fold (fun a () acc -> a :: acc) tbl []
  in
  let rows =
    List.concat_map
      (fun frac ->
        List.map
          (fun algo ->
            let configure =
              if frac = 0.0 then None
              else
                Some
                  (fun svc ->
                    for s = 0 to shards - 1 do
                      Ctrl.set_fault svc ~shard:s
                        (Some
                           (Fault.create ~stuck:(stuck_bank ~frac s)
                              ~seed:(seed lxor (0x5a17 + s))
                              ()))
                    done)
            in
            let spec =
              { Churn.kind = Dataset.ACL4; initial = n; ops; shards; capacity;
                batch; seed }
            in
            let r = Churn.run ~algo ~resil ?configure spec in
            let svc = r.Churn.service in
            let sum f =
              let acc = ref 0 in
              for s = 0 to Ctrl.shards svc - 1 do
                acc := !acc + f (Shard.telemetry (Ctrl.shard svc s))
              done;
              !acc
            in
            let dead = Ctrl.dead_rows svc in
            let w = r.Churn.flush_wall_ms in
            Format.printf
              "%-8s dead %2d%%: applied %4d  transient-failed %3d  retries \
               %3d  shed %d  dead-rows %3d  tcam-ops %5d  flush p99 %.2f ms@."
              (Firmware.algo_kind_name algo)
              (int_of_float (frac *. 100.))
              r.Churn.applied r.Churn.failed r.Churn.retries r.Churn.shed dead
              (sum Telemetry.tcam_ops) w.Measure.p99;
            let open Telemetry.Json in
            Obj
              [
                ("algo", Str (Firmware.algo_kind_name algo));
                ("dead_frac", Float frac);
                ("applied", Int r.Churn.applied);
                ("transient_failed", Int r.Churn.failed);
                ("retries", Int r.Churn.retries);
                ("shed", Int r.Churn.shed);
                ("dead_rows", Int dead);
                ("degraded_diverted", Int (sum Telemetry.degraded_diverted));
                ("tcam_ops", Int (sum Telemetry.tcam_ops));
                ("flushes", Int r.Churn.flushes);
                ("flush_wall_p50_ms", Float w.Measure.p50);
                ("flush_wall_p99_ms", Float w.Measure.p99);
              ])
          (Firmware.standard_algos backend))
      fracs
  in
  let open Telemetry.Json in
  let doc =
    Obj
      [
        ("bench", Str "degrade");
        ("quick", Bool !quick);
        ("seed", Int seed);
        ("kind", Str (Dataset.to_string Dataset.ACL4));
        ("shards", Int shards);
        ("capacity", Int capacity);
        ("ops", Int ops);
        ("rows", List rows);
      ]
  in
  let oc = open_out "BENCH_degrade.json" in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote BENCH_degrade.json (%d rows)@." (List.length rows)

(* ------------------------------------------------------------------ *)
(* plane: lookup latency while the table is being rewritten under it.
   Sweeps update rate x Zipf skew x scheduler: the readers sample
   shard 0's published snapshots throughout the storm, so the
   quantiles price what a data-plane packet pays for a concurrent
   cascade — nothing, if publication really is one pointer swap.
   Correctness is the test suite's and @plane's job (snapshot oracle,
   backend agreement); here the numbers are pure lookup mechanics.
   The lookup-side quantiles are wall-clock dependent; result_json
   quarantines them under Plane.volatile_keys so the storm side stays
   reproducible from the seed. *)

let plane () =
  let op_counts = if !quick then [ 800 ] else [ 1_000; 4_000 ] in
  let skews = if !quick then [ 0.0; 1.1 ] else [ 0.0; 0.8; 1.2 ] in
  let n = if !quick then 300 else 1_000 in
  let flows = if !quick then 8_000 else 50_000 in
  Format.printf "@.== plane: lookup p50/p99/p999 under update storms ==@.";
  let rows =
    List.concat_map
      (fun ops ->
        List.concat_map
          (fun skew ->
            List.map
              (fun algo ->
                let spec =
                  {
                    Plane.default_spec with
                    Plane.n;
                    seed;
                    flows;
                    skew;
                    ops;
                    min_lookups = (if !quick then 600 else 2_000);
                  }
                in
                let r = Plane.run ~algo spec in
                assert (r.Plane.disagree = 0);
                Format.printf "%a" Plane.pp_result r;
                Plane.result_json r)
              (Firmware.standard_algos backend))
          skews)
      op_counts
  in
  let open Telemetry.Json in
  let doc =
    Obj
      [
        ("bench", Str "plane");
        ("quick", Bool !quick);
        ("seed", Int seed);
        ("kind", Str (Dataset.to_string Plane.default_spec.Plane.kind));
        ("rows", List rows);
      ]
  in
  let oc = open_out "BENCH_plane.json" in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote BENCH_plane.json (%d rows)@." (List.length rows)

(* ------------------------------------------------------------------ *)

let sections =
  [
    (* micro first: Bechamel numbers are cleanest before the experiment
       sweeps fill the major heap with cached tables. *)
    ("micro", micro);
    ("table2", table2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("ablation", ablation);
    ("ctrl", ctrl);
    ("conform", conform);
    ("resil", resil);
    ("cache", cache);
    ("net", net);
    ("degrade", degrade);
    ("plane", plane);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "--quick" then begin
          quick := true;
          false
        end
        else true)
      args
  in
  let chosen = if args = [] then List.map fst sections else args in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f ->
          let t = Unix.gettimeofday () in
          f ();
          Format.printf "@.[%s done in %.1fs]@." name (Unix.gettimeofday () -. t)
      | None ->
          Format.eprintf "unknown section %S (known: %s)@." name
            (String.concat ", " (List.map fst sections));
          exit 2)
    chosen;
  Format.printf "@.Total: %.1fs@." (Unix.gettimeofday () -. t0)
