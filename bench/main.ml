(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §5 for the experiment index), plus the
   ablations DESIGN.md §7 calls out and Bechamel micro-benchmarks of the
   core data-structure operations.

   Usage:  main.exe [--quick] [micro] [table2] [fig7] [fig8] [fig9]
           [ablation]

   With no section argument every section runs.  --quick restricts the
   sweeps to sizes <= 4000 (a couple of minutes); the full run covers the
   paper's 250..40k sizes.  Run times go to stderr, so stdout is a
   function of the seed alone, apart from micro's timings and the
   measured firmware columns. *)

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
          Format.printf "@.";
          Format.eprintf "[%s done in %.1fs]@." name (Unix.gettimeofday () -. t)
      | None ->
          Format.eprintf "unknown section %S (known: %s)@." name
            (String.concat ", " (List.map fst sections));
          exit 2)
    chosen;
  Format.printf "@.";
  Format.eprintf "Total: %.1fs@." (Unix.gettimeofday () -. t0)
