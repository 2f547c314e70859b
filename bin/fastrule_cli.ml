(* fastrule_cli — command-line front end for the FastRule reproduction.

   Subcommands:
     stats    generate a table and print its dependency-graph statistics
     run      replay an update stream against chosen schedulers
     hw       demonstrate the ONetSwitch-style modulo-address emulation *)

open Fastrule
open Cmdliner

(* A usage error: say why on stderr and exit 2 (exit 1 is kept for runs
   that report failures or divergences). *)
let bad fmt =
  Format.kasprintf
    (fun m ->
      Format.eprintf "fastrule_cli: %s@." m;
      exit 2)
    fmt

(* A preload that does not fit the TCAM is a usage error too, named by
   its rule count, shards and capacity as [net] names a node's. *)
let preloading ~rules ~shards ~capacity f =
  try f ()
  with Invalid_argument m when String.starts_with ~prefix:"Layout.place" m ->
    bad "%d rules do not load into %d shard%s of %d TCAM slots (%s)" rules
      shards
      (if shards = 1 then "" else "s")
      capacity m

(* --domains N for every command that flushes services: absent leaves the
   choice to the command ([none] documents it); N < 1 is a usage error. *)
let domains_arg ?none doc =
  let check = function
    | Some d when d < 1 -> bad "--domains must be >= 1 (got %d)" d
    | d -> d
  in
  Term.(
    const check
    $ Arg.(
        value & opt (some ?none int) None & info [ "domains" ] ~docv:"N" ~doc))

let json_arg doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

(* Write one JSON document to [path] and say so on stdout. *)
let write_json path ~what json =
  let oc = open_out path in
  output_string oc (Telemetry.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote %s to %s@." what path

let kind_conv =
  let parse s =
    match Dataset.of_string s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown table kind %S" s))
  in
  Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf (Dataset.to_string k))

let kind_arg =
  Arg.(
    value
    & opt kind_conv Dataset.ACL4
    & info [ "k"; "kind" ] ~docv:"KIND"
        ~doc:"Table type: acl4, acl5, fw4, fw5 or route.")

let n_arg =
  Arg.(value & opt int 1_000 & info [ "n" ] ~docv:"N" ~doc:"Initial table size.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"PATH"
        ~doc:"Operate on a saved rule table instead of generating one.")

(* --- stats ----------------------------------------------------------- *)

(* Every edge as "u v", sorted: one digest that says two compilers built
   the same graph. *)
let edge_digest graph =
  let edges = ref [] in
  Graph.iter_nodes graph (fun u ->
      List.iter (fun v -> edges := (u, v) :: !edges) (Graph.deps graph u));
  let b = Buffer.create (16 * Graph.n_edges graph) in
  List.iter
    (fun (u, v) -> Buffer.add_string b (Printf.sprintf "%d %d\n" u v))
    (List.sort compare !edges);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Mean candidates and true overlaps per query, other than the query
   itself, with every rule indexed. *)
let candidate_means rules =
  let idx = Overlap_index.create () in
  Array.iter (Overlap_index.add idx) rules;
  let cands = ref 0 and hits = ref 0 in
  Array.iter
    (fun q ->
      cands := !cands + Overlap_index.candidate_count idx q;
      Overlap_index.iter_overlapping idx q (fun _ -> incr hits))
    rules;
  let n = float_of_int (max 1 (Array.length rules)) in
  (float_of_int !cands /. n, float_of_int !hits /. n)

let stats_cmd =
  let run kind n seed file max_ratio =
    let name, rules =
      match file with
      | Some path -> (
          match Rules_io.load path with
          | Ok rules -> (path, rules)
          | Error e ->
              Format.eprintf "cannot load %s: %s@." path e;
              exit 1)
      | None -> (Dataset.to_string kind, Dataset.generate kind ~seed ~n)
    in
    (* Collect the generator's garbage first, so the time is the
       compile's alone. *)
    Gc.full_major ();
    let graph, compile_ms =
      Measure.time_ms (fun () -> Dag_build.compile_fast rules)
    in
    let s = Dag_stats.compute graph in
    Format.printf "%s n=%d: %a@." name (Array.length rules) Fr_dag.Stats.pp s;
    Format.printf "priority levels needed (DAG height): %d@."
      (Topo.longest_path_nodes graph);
    Format.printf "edges: %d  md5: %s@." (Graph.n_edges graph) (edge_digest graph);
    Format.printf "compile_fast wall: %.3f s (volatile)@." (compile_ms /. 1000.0);
    let c, o = candidate_means rules in
    Format.printf "overlap index per query: %.2f candidates, %.2f overlaps@." c o;
    match max_ratio with
    | Some r when c > r *. o ->
        Format.printf "FAIL: candidates exceed %g x overlaps@." r;
        exit 1
    | _ -> ()
  in
  let max_ratio =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-candidate-ratio" ] ~docv:"R"
          ~doc:"Exit 1 when the overlap index's mean candidates per query \
                exceed $(docv) times the mean true overlaps.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Table and dependency-graph statistics (Table II).")
    Term.(const run $ kind_arg $ n_arg $ seed_arg $ file_arg $ max_ratio)

(* --- generate -------------------------------------------------------- *)

let generate_cmd =
  let run kind n seed out =
    let rules = Dataset.generate kind ~seed ~n in
    match out with
    | Some path ->
        Rules_io.save path rules;
        Format.printf "wrote %d %s rules to %s@." n (Dataset.to_string kind) path
    | None -> print_string (Rules_io.to_string rules)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH"
          ~doc:"Write to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate a synthetic rule table and emit it in the \
             fastrule-table text format.")
    Term.(const run $ kind_arg $ n_arg $ seed_arg $ out_arg)

(* --- run ------------------------------------------------------------- *)

let algo_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "naive" -> Ok Firmware.Naive
    | "ruletris" -> Ok Firmware.Ruletris
    | "fr-o" -> Ok (Firmware.FR_O Store.Bit_backend)
    | "fr-o/array" -> Ok (Firmware.FR_O Store.Array_backend)
    | "fr-o/od" | "fr-o/on-demand" -> Ok (Firmware.FR_O Store.On_demand)
    | "fr-sd" -> Ok (Firmware.FR_SD Store.Bit_backend)
    | "fr-sb" -> Ok (Firmware.FR_SB Store.Bit_backend)
    | _ -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  Arg.conv
    (parse, fun ppf k -> Format.pp_print_string ppf (Firmware.algo_kind_name k))

let run_cmd =
  let run kind n seed updates deletes algos csv =
    let updates = Option.value updates ~default:(Experiment.updates_for n) in
    let spec = { Experiment.kind; n; updates; with_deletes = deletes; seed } in
    let algos =
      if algos = [] then Firmware.standard_algos Store.Bit_backend else algos
    in
    let rows = Experiment.run_spec spec ~algos in
    if csv then begin
      print_endline Report.csv_header;
      List.iter (fun r -> print_endline (Report.row_to_csv r)) rows
    end
    else Report.print_rows rows
  in
  let updates_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "u"; "updates" ] ~docv:"COUNT"
          ~doc:"Stream length (default: the paper's 250/500/1000 rule).")
  in
  let deletes_arg =
    Arg.(
      value & flag
      & info [ "d"; "deletes" ]
          ~doc:"Alternate insertions with deletions (the paper's second \
                stream type).")
  in
  let algos_arg =
    Arg.(
      value
      & opt (list algo_conv) []
      & info [ "a"; "algos" ] ~docv:"ALGOS"
          ~doc:"Comma-separated schedulers: naive, ruletris, fr-o, \
                fr-o/array, fr-o/od, fr-sd, fr-sb.  Default: all five \
                paper configurations.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Replay a random update stream against chosen schedulers and \
             report firmware / TCAM time.")
    Term.(
      const run $ kind_arg $ n_arg $ seed_arg $ updates_arg $ deletes_arg
      $ algos_arg $ csv_arg)

(* --- ctrl ------------------------------------------------------------ *)

let policy_conv =
  let parse s =
    match Partition.policy_of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown policy %S (hash or prefix:<k>)" s))
  in
  Arg.conv
    (parse, fun ppf p -> Format.pp_print_string ppf (Partition.policy_to_string p))

let fault_spec_conv =
  let parse s =
    match String.index_opt s ':' with
    | None -> Error (`Msg "expected SHARD:SPEC (e.g. 0:p=0.1,max=4)")
    | Some i -> (
        match int_of_string_opt (String.sub s 0 i) with
        | None -> Error (`Msg (Printf.sprintf "bad shard index in %S" s))
        | Some shard -> (
            match
              Fault.spec_of_string (String.sub s (i + 1) (String.length s - i - 1))
            with
            | Ok spec -> Ok (shard, spec)
            | Error e -> Error (`Msg e)))
  in
  Arg.conv
    ( parse,
      fun ppf (s, spec) ->
        Format.fprintf ppf "%d:%s" s (Fault.spec_to_string spec) )

(* One-line latency summary over a service's shards: the worst observed
   per-op hardware p99 and the adaptive slow-call threshold it produced,
   so drills read the gauge without parsing the JSON dump. *)
let pp_latency_line service =
  let thr = ref infinity and p99 = ref 0.0 in
  for s = 0 to Ctrl.shards service - 1 do
    let tel = Shard.telemetry (Ctrl.shard service s) in
    let t = Telemetry.slow_threshold_ms tel in
    if Float.is_finite t && ((not (Float.is_finite !thr)) || t > !thr) then
      thr := t;
    let p = (Telemetry.hw_per_op_ms tel).Measure.p99 in
    if Float.is_finite p && p > !p99 then p99 := p
  done;
  Format.printf "hw/op p99 (ms): %.3f  slow-call threshold (ms/op): %s@."
    !p99
    (if Float.is_finite !thr then Printf.sprintf "%.3f" !thr
     else "inf (off/warming)")

let ctrl_json path service ~scenario ~seed =
  Format.printf "@.";
  write_json path ~what:"per-shard telemetry"
    (Ctrl.to_json ~scenario ~seed service)

let ctrl_cmd =
  let run kind n seed shards capacity ops batch policy json journal do_recover
      faults crash_after crash_mid allow_failures failover slow_call slow_factor
      chaos_n domains dead_frac =
    if shards < 1 then bad "--shards must be >= 1 (got %d)" shards;
    if capacity < 1 then bad "--capacity must be >= 1 (got %d)" capacity;
    if dead_frac < 0.0 || dead_frac >= 1.0 then
      bad "--dead-frac must be in [0, 1) (got %g)" dead_frac;
    if batch < 1 then bad "--batch must be >= 1 (got %d)" batch;
    let domains = Option.value domains ~default:(Pool.recommended ()) in
    (match crash_after with
    | Some k when k < 1 -> bad "--crash-after must be >= 1 (got %d)" k
    | Some _ when journal = None ->
        bad "--crash-after needs --journal (a crash without a journal loses \
             everything)"
    | _ -> ());
    if do_recover then begin
      (* Recovery mode: the journal directory is the whole input — shape,
         checkpoint and intent all come from disk. *)
      let dir =
        match journal with
        | Some d -> d
        | None -> bad "--recover needs --journal DIR"
      in
      match Ctrl.recover ~domains ~journal:dir () with
      | Error e -> bad "recovery failed: %s" e
      | Ok r ->
          let service = r.Ctrl.service in
          Format.printf
            "recovered %d shards (%d rules) from %s@." (Ctrl.shards service)
            (Ctrl.rule_count service) dir;
          Format.printf
            "replayed %d committed drains (%d mods), requeued %d uncommitted, \
             %d shard(s) were mid-drain@."
            r.Ctrl.replayed_drains r.Ctrl.replayed_mods r.Ctrl.requeued
            r.Ctrl.interrupted;
          List.iter (fun w -> Format.printf "WARNING: %s@." w) r.Ctrl.warnings;
          let flushed =
            if Ctrl.pending service > 0 then begin
              let report = Ctrl.flush service in
              Format.printf "post-recovery flush: applied %d, failed %d@."
                (Ctrl.applied report)
                (List.length (Ctrl.failures report));
              Ctrl.failures report
            end
            else []
          in
          Format.printf "@.";
          pp_latency_line service;
          Ctrl.pp_stats Format.std_formatter service;
          (match json with
          | Some path -> ctrl_json path service ~scenario:("recover-" ^ dir) ~seed
          | None -> ());
          exit
            (if r.Ctrl.warnings = [] && (allow_failures || flushed = []) then 0
             else 1)
    end;
    (* A used journal directory is a usage error, caught before any work. *)
    (match Option.map (fun dir -> Ctrl.journal_unused ~dir) journal with
    | Some (Error e) -> bad "%s" e
    | Some (Ok ()) | None -> ());
    let resil =
      let base = Ctrl.default_resil in
      let base = { base with Ctrl.failover } in
      let base =
        match slow_factor with
        | Some k when k <= 0.0 ->
            bad "--slow-factor must be positive (got %g)" k
        | Some k -> { base with Ctrl.slow_factor = k }
        | None -> base
      in
      match slow_call with
      | Some ms when ms <= 0.0 -> bad "--slow-call must be positive (got %g)" ms
      | Some ms -> { base with Ctrl.slow_drain_ms = ms }
      | None -> base
    in
    if chaos_n < 0 then bad "--chaos must be >= 0 (got %d)" chaos_n;
    let chaos =
      if chaos_n = 0 then []
      else begin
        let flushes = max 1 (ops / batch) in
        let plan =
          Churn.chaos_plan ~seed:(seed lxor 0xc405) ~shards ~flushes
            ~events:chaos_n
        in
        Format.printf "chaos plan (%d events%s):@." (List.length plan)
          (if journal = None then "; restarts need --journal, degraded to \
                                   no-ops"
           else "");
        List.iter (fun e -> Format.printf "  %a@." Churn.pp_chaos_event e) plan;
        plan
      end
    in
    let spec =
      { Churn.kind; initial = n; ops; shards; capacity; batch; seed }
    in
    (* Seeded stuck banks for the degraded-hardware chaos drill: every
       shard loses a random [dead_frac] of its rows to stuck-at-write
       faults before the stream starts. *)
    let dead_banks =
      if dead_frac = 0.0 then []
      else begin
        if faults <> [] then
          bad "--dead-frac and --fault cannot be combined (both own the \
               shard fault plans)";
        let rows = max 1 (int_of_float (dead_frac *. float_of_int capacity)) in
        List.init shards (fun s ->
            let rng = Rng.create ~seed:(seed lxor 0xdead lxor (s * 0x9e37)) in
            let tbl = Hashtbl.create rows in
            while Hashtbl.length tbl < rows do
              Hashtbl.replace tbl (Rng.int rng capacity) ()
            done;
            (s, Hashtbl.fold (fun a () acc -> a :: acc) tbl []))
      end
    in
    let resil =
      (* discovery costs one failed write per dead row first touched; give
         the retry budget room to absorb it within the same flush *)
      if dead_frac > 0.0 then
        { resil with Ctrl.retry_budget = max resil.Ctrl.retry_budget 8 }
      else resil
    in
    let configure =
      match (dead_banks, faults) with
      | [], [] -> None
      | banks, [] when banks <> [] ->
          Some
            (fun service ->
              List.iter
                (fun (s, stuck) ->
                  Ctrl.set_fault service ~shard:s
                    (Some (Fault.create ~stuck ~seed:(seed lxor (0x5a17 + s)) ())))
                banks)
      | _, fs ->
          List.iter
            (fun (s, fspec) ->
              if s < 0 || s >= shards then
                bad "--fault shard %d out of range (0..%d)" s (shards - 1);
              List.iter
                (fun a ->
                  if a < 0 || a >= capacity then
                    bad
                      "--fault %d:stuck=%d is outside the shard's table \
                       (capacity %d, addresses 0..%d)"
                      s a capacity (capacity - 1))
                fspec.Fault.stuck)
            fs;
          Some
            (fun service ->
              List.iter
                (fun (s, fspec) ->
                  Ctrl.set_fault service ~shard:s
                    (Some (Fault.of_spec fspec ~seed:(seed lxor (0x5a17 + s)))))
                fs)
    in
    let r =
      preloading ~rules:n ~shards ~capacity (fun () ->
          Churn.run ~policy ~resil ?journal ~domains ?configure
            ~chaos ?stop_after_flushes:crash_after spec)
    in
    Format.printf
      "churn %s: %d shards x %d slots, %d preloaded, %d ops in windows of %d \
       (%d domain%s)@."
      (Dataset.to_string kind) shards capacity n ops batch domains
      (if domains = 1 then "" else "s");
    Format.printf "submitted %d  coalesced %d  applied %d  failed %d  \
                   flushes %d@."
      r.Churn.submitted r.Churn.coalesced r.Churn.applied r.Churn.failed
      r.Churn.flushes;
    if r.Churn.retries + r.Churn.shed + r.Churn.breaker_opens > 0 then
      Format.printf "retries %d  shed %d  breaker opens %d@." r.Churn.retries
        r.Churn.shed r.Churn.breaker_opens;
    if r.Churn.diverted + r.Churn.rebalanced + r.Churn.restarts > 0 then
      Format.printf "diverted %d  rebalanced %d  restarts %d  residual \
                     diverted %d@."
        r.Churn.diverted r.Churn.rebalanced r.Churn.restarts
        (Ctrl.diverted_count r.Churn.service);
    if dead_frac > 0.0 then begin
      let seeded =
        List.fold_left (fun acc (_, b) -> acc + List.length b) 0 dead_banks
      in
      let degraded_diverted = ref 0 in
      for s = 0 to Ctrl.shards r.Churn.service - 1 do
        degraded_diverted :=
          !degraded_diverted
          + Telemetry.degraded_diverted
              (Shard.telemetry (Ctrl.shard r.Churn.service s))
      done;
      Format.printf
        "degraded: %d stuck rows seeded, %d dead discovered, \
         degraded-diverted %d, shed %d@."
        seeded
        (Ctrl.dead_rows r.Churn.service)
        !degraded_diverted r.Churn.shed
    end;
    Format.printf "flush wall (ms): %a@.@." Measure.pp_summary
      r.Churn.flush_wall_ms;
    pp_latency_line r.Churn.service;
    Ctrl.pp_stats Format.std_formatter r.Churn.service;
    (match json with
    | None -> ()
    | Some path ->
        let scenario =
          Printf.sprintf "ctrl-%s-%dx%d" (Dataset.to_string kind) shards
            capacity
        in
        ctrl_json path r.Churn.service ~scenario ~seed);
    match crash_after with
    | Some _ ->
        Ctrl.simulate_crash ~mid_drain:crash_mid r.Churn.service;
        Format.printf
          "@.simulated crash after %d flushes (%d ops still queued); recover \
           with: fastrule_cli ctrl --journal %s --recover@."
          r.Churn.flushes
          (Ctrl.pending r.Churn.service)
          (Option.value journal ~default:"DIR");
        exit 42
    | None ->
        (* Under --dead-frac, per-attempt write failures are the expected
           discovery cost (the retry pass re-drives them); the drill's
           pass/fail signal is shedding. *)
        let healthy =
          if dead_frac > 0.0 then r.Churn.shed = 0 else r.Churn.failed = 0
        in
        exit (if allow_failures || healthy then 0 else 1)
  in
  let shards_arg =
    Arg.(
      value & opt int 4
      & info [ "s"; "shards" ] ~docv:"N" ~doc:"Number of switch shards.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 2_000
      & info [ "c"; "capacity" ] ~docv:"SLOTS"
          ~doc:"TCAM slots per shard.")
  in
  let ops_arg =
    Arg.(
      value & opt int 10_000
      & info [ "u"; "updates" ] ~docv:"COUNT"
          ~doc:"Flow-mods in the churn stream.")
  in
  let batch_arg =
    Arg.(
      value & opt int 64
      & info [ "b"; "batch" ] ~docv:"OPS"
          ~doc:"Ops per flush window (queues drain every BATCH ops).")
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv Partition.Hash_id
      & info [ "p"; "policy" ] ~docv:"POLICY"
          ~doc:"Routing policy: $(b,hash) or $(b,prefix:<k>) (top k \
                destination-IP bits).")
  in
  let json_arg = json_arg "Also dump per-shard telemetry as JSON." in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:"Write-ahead journal directory (created if missing): every \
                accepted submit goes durable before the hardware sees it.")
  in
  let recover_arg =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:"Rebuild the service from --journal DIR (checkpoint + replay \
                + requeued suffix), flush the requeued intent, and report. \
                Exits non-zero on recovery warnings or flush failures.")
  in
  let fault_arg =
    Arg.(
      value
      & opt_all fault_spec_conv []
      & info [ "fault" ] ~docv:"SHARD:SPEC"
          ~doc:"Install a fault plan on one shard's agent, e.g. \
                $(b,0:p=0.2,max=4) or $(b,1:p=1) — the supervisor's retry \
                and circuit-breaker paths under test.  Repeatable.")
  in
  let crash_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-after" ] ~docv:"FLUSHES"
          ~doc:"Stop the stream after this many flushes and simulate a \
                process crash (journal left on disk, exit 42).  Requires \
                --journal.")
  in
  let crash_mid_arg =
    Arg.(
      value & flag
      & info [ "crash-mid-drain" ]
          ~doc:"With --crash-after: die after the begin markers go durable \
                but before any commit — the worst crash point.")
  in
  let allow_failures_arg =
    Arg.(
      value & flag
      & info [ "allow-failures" ]
          ~doc:"Exit 0 even when the stream reports failed ops (rejections \
                are expected under injected faults and tight capacity).")
  in
  let failover_arg =
    Arg.(
      value & flag
      & info [ "failover" ]
          ~doc:"Breaker-aware failover routing: new rule ids headed for a \
                quarantined shard divert to healthy siblings and drain back \
                home after the breaker closes.")
  in
  let slow_call_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-call" ] ~docv:"MS"
          ~doc:"Slow-call breaker policy: a damage-free drain averaging \
                more than MS modelled hardware ms per op counts against \
                the shard's breaker (default: disabled).")
  in
  let slow_factor_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-factor" ] ~docv:"K"
          ~doc:"Adaptive slow-call breaker policy: judge each drain against \
                the shard's own p99 per-op hardware latency times K (from \
                its telemetry histogram), so the threshold tracks drift. \
                --slow-call overrides with a fixed bound.")
  in
  let chaos_arg =
    Arg.(
      value & opt int 0
      & info [ "chaos" ] ~docv:"EVENTS"
          ~doc:"Schedule this many seeded fault-domain events (slow faults, \
                write failures, restarts, heals) across the run.  Restart \
                events need --journal.")
  in
  let domains_arg =
    domains_arg
      ~none:(string_of_int (Pool.recommended ()))
      "Executors per flush: shards drain concurrently on N OCaml domains \
       with a deterministic join (results are identical for every N; \
       default: the runtime's recommended domain count).  1 = strictly \
       sequential."
  in
  let dead_frac_arg =
    Arg.(
      value & opt float 0.0
      & info [ "dead-frac" ] ~docv:"F"
          ~doc:"Degraded-hardware chaos drill: before the stream starts, \
                condemn a seeded random fraction F of every shard's rows \
                (stuck-at-write: writes fail, erases still work).  The \
                firmware must discover the holes, pack around them, and \
                finish with nothing shed.  Incompatible with --fault.")
  in
  Cmd.v
    (Cmd.info "ctrl"
       ~doc:"Drive the sharded control-plane service with a seeded churn \
             stream and report per-shard telemetry (exit 1 on failed ops \
             unless --allow-failures).")
    Term.(
      const run $ kind_arg $ n_arg $ seed_arg $ shards_arg $ capacity_arg
      $ ops_arg $ batch_arg $ policy_arg $ json_arg
      $ journal_arg $ recover_arg $ fault_arg $ crash_after_arg $ crash_mid_arg
      $ allow_failures_arg $ failover_arg $ slow_call_arg $ slow_factor_arg
      $ chaos_arg $ domains_arg $ dead_frac_arg)

(* --- journal --------------------------------------------------------- *)

let journal_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "journal" ] ~docv:"DIR" ~doc:"Journal directory to inspect.")

let journal_stat_cmd =
  let human_bytes b =
    if b >= 1_048_576 then Printf.sprintf "%.1f MiB" (float_of_int b /. 1_048_576.)
    else if b >= 1_024 then Printf.sprintf "%.1f KiB" (float_of_int b /. 1_024.)
    else Printf.sprintf "%d B" b
  in
  (* One service journal: header line plus per-shard stats.  Returns
     whether anything failed; [indent] nests it under a fleet tree. *)
  let stat_service ?(indent = "") dir =
    match
      Result.bind (Journal.read_meta ~dir) (fun meta ->
          Result.map (fun () -> meta) (Journal.check_shards ~dir meta))
    with
    | Error e ->
        Format.printf "%sjournal %s: ERROR %s@." indent dir e;
        true
    | Ok meta ->
        Format.printf
          "%sjournal %s: %d shard(s), capacity %d, policy %s, scheduler %s%s@."
          indent dir meta.Journal.shards meta.Journal.capacity
          meta.Journal.policy meta.Journal.kind
          (if meta.Journal.verify then ", verify on" else "");
        let failed = ref false in
        for s = 0 to meta.Journal.shards - 1 do
          match Journal.stat ~dir ~shard:s with
          | Error e ->
              failed := true;
              Format.printf "%s  shard %d: ERROR %s@." indent s e
          | Ok st ->
              Format.printf
                "%s  shard %d: WAL %s (age %.1f s), %d drain(s) total, %d \
                 committed since checkpoint, %d pending mod(s)%s@."
                indent s
                (human_bytes st.Journal.wal_bytes)
                st.Journal.wal_age_s st.Journal.total_drains
                st.Journal.committed_drains st.Journal.pending_mods
                (if st.Journal.interrupted then ", INTERRUPTED (mid-drain)"
                 else "");
              List.iter
                (fun (upto, file, bytes) ->
                  Format.printf "%s    checkpoint upto seq %d: %s (%s)@."
                    indent upto file (human_bytes bytes))
                st.Journal.checkpoints
        done;
        !failed
  in
  let run dir =
    if Net.is_fleet_journal dir then begin
      (* fleet rollout tree: the rollout log's round ledger up top, then
         every node's service journal aggregated underneath *)
      match Net.rollout_stat ~journal:dir () with
      | Error e ->
          Format.eprintf "fastrule_cli: %s@." e;
          exit 1
      | Ok rs ->
          Format.printf "fleet journal %s: %d node(s), %d flow(s) stamped@."
            dir rs.Net.rs_nodes rs.Net.rs_stamped;
          (if rs.Net.rs_state = "idle" then
             Format.printf "  rollout: none recorded@."
           else
             Format.printf
               "  rollout: %s (batch %d, %d -> %d flows); rounds %d begun / \
                %d committed, rollback %d begun / %d committed@."
               rs.Net.rs_state rs.Net.rs_batch rs.Net.rs_old_flows
               rs.Net.rs_new_flows rs.Net.rs_begun rs.Net.rs_committed
               rs.Net.rs_rb_begun rs.Net.rs_rb_committed);
          Format.printf "  last consistent boundary: %s@."
            rs.Net.rs_last_boundary;
          let failed = ref false in
          for node = 0 to rs.Net.rs_nodes - 1 do
            let node_dir =
              Filename.concat dir (Printf.sprintf "node-%d" node)
            in
            Format.printf "  node %d:@." node;
            if stat_service ~indent:"    " node_dir then failed := true
          done;
          exit (if !failed then 1 else 0)
    end
    else begin
      match Journal.read_meta ~dir with
      | Error e ->
          Format.eprintf "fastrule_cli: %s@." e;
          exit 1
      | Ok _ -> exit (if stat_service dir then 1 else 0)
    end
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:"Per-shard journal health: WAL and checkpoint sizes, ages, \
             drain and pending-mod counts.  A fleet rollout tree \
             ($(b,fleet.meta)) additionally reports the rollout ledger — \
             rounds begun/committed (forward and rollback) and the last \
             consistent boundary — then every node's journal.")
    Term.(const run $ journal_dir_arg)

let journal_cmd =
  Cmd.group
    (Cmd.info "journal"
       ~doc:"Inspect a write-ahead journal directory without touching it.")
    [ journal_stat_cmd ]

(* --- conform --------------------------------------------------------- *)

let break_conv =
  let scheds = [ "naive"; "ruletris"; "fr-o"; "fr-sd"; "fr-sb" ] in
  let parse s =
    let split =
      match String.index_opt s ':' with
      | None -> Ok (s, Sabotage.Reverse)
      | Some i -> (
          let m = String.sub s (i + 1) (String.length s - i - 1) in
          match Sabotage.mode_of_string m with
          | Some mode -> Ok (String.sub s 0 i, mode)
          | None ->
              Error (`Msg (Printf.sprintf "unknown sabotage mode %S" m)))
    in
    match split with
    | Error _ as e -> e
    | Ok (sched, mode) ->
        let sched = String.lowercase_ascii sched in
        if List.mem sched scheds then Ok (sched, mode)
        else
          Error
            (`Msg
               (Printf.sprintf "unknown scheduler %S (want one of %s)" sched
                  (String.concat ", " scheds)))
  in
  Arg.conv
    ( parse,
      fun ppf (s, m) ->
        Format.fprintf ppf "%s:%s" s (Sabotage.mode_to_string m) )

let conform_cmd =
  let run kind n seed events pool capacity probes fault fault_max break_ record
      save replay shrink out crash_at crash_mid crash_batch failover_shard
      fo_shards degraded_frac strict domains capture =
    if fault < 0. || fault > 1. then bad "--fault must be in [0,1] (got %g)" fault;
    if crash_batch < 1 then bad "--crash-batch must be >= 1 (got %d)" crash_batch;
    (* A fault lane runs the service oracle, which takes none of the
       differential run's sabotage, fault-injection, recording or
       shrinking options: naming one beside a lane is a usage error. *)
    let no_lane_flags lane =
      match
        List.filter_map
          (fun (set, flag) -> if set then Some flag else None)
          [
            (break_ <> [], "--break");
            (fault > 0., "--fault");
            (record, "--record");
            (save <> None, "--save");
            (shrink, "--shrink");
          ]
      with
      | [] -> ()
      | flags ->
          bad "the %s fault lane does not take %s" lane (String.concat ", " flags)
    in
    (* A service-level fault lane: print the report and exit on its
       verdict (--strict only decides whether a vacuous lane fails). *)
    let run_fault ~probes ~batch fault trace =
      match Oracle.run_service ~probes ~batch ?domains ?capture fault trace with
      | exception Invalid_argument m -> bad "%s" m
      | r ->
          Oracle.pp_service_report Format.std_formatter r;
          List.iter
            (Format.printf
               "%s: %s never wrote into the stuck bank — vacuous \
                certification (densify the trace or raise --degraded)@."
               (if strict then "FAIL" else "WARNING"))
            r.Oracle.vacuous;
          exit (if Oracle.service_clean ~strict r then 0 else 1)
    in
    (* A bundle replay re-runs the captured fault with the captured
       parameters — the offline half of --capture. *)
    (match replay with
    | Some path when Bundle.is_bundle path -> (
        match Bundle.load path with
        | Error e -> bad "%s" e
        | Ok (info, trace) ->
            no_lane_flags "--replay of a bundle";
            Format.printf "replaying %a@." Bundle.pp_info info;
            run_fault ~probes:info.Bundle.probes ~batch:info.Bundle.batch
              info.Bundle.fault trace)
    | _ -> ());
    let trace =
      match replay with
      | Some path -> (
          match Trace.load path with
          | Ok t -> t
          | Error e -> bad "cannot load trace %s: %s" path e)
      | None ->
          let pool = Option.value pool ~default:(2 * n) in
          let capacity = Option.value capacity ~default:(4 * n) in
          Trace.generate ~kind ~seed ~initial:n ~pool ~capacity ~events ()
    in
    (match (crash_at, failover_shard, degraded_frac) with
    | Some at, _, _ -> Some ("--crash-at", Oracle.Crash { at; mid_drain = crash_mid })
    | None, Some shard, _ ->
        Some ("--failover", Oracle.Slow { shards = fo_shards; shard; ms = 8.0 })
    | None, None, Some frac ->
        Some ("--degraded", Oracle.Stuck { shards = fo_shards; shard = 0; frac })
    | None, None, None -> None)
    |> Option.iter (fun (lane, fault) ->
           no_lane_flags lane;
           run_fault ~probes ~batch:crash_batch fault trace);
    let config =
      {
        Oracle.default_config with
        Oracle.probes;
        record = record || save <> None;
        sabotage = break_;
        fault_prob = fault;
        max_failures = fault_max;
      }
    in
    let report =
      preloading ~rules:trace.Trace.initial ~shards:1
        ~capacity:trace.Trace.capacity (fun () -> Oracle.run ~config trace)
    in
    Oracle.pp_report Format.std_formatter report;
    Oracle.pp_timing Format.err_formatter report;
    (match save with
    | Some path ->
        Trace.save report.Oracle.trace path;
        Format.printf "wrote trace (with recordings) to %s@." path
    | None -> ());
    let ok = Oracle.clean report in
    if (not ok) && shrink then begin
      let shrink_config = { config with Oracle.record = false } in
      let failing t = not (Oracle.clean (Oracle.run ~config:shrink_config t)) in
      let small, runs =
        Shrink.minimize ~failing (Trace.with_events trace trace.Trace.events)
      in
      Format.printf "@.shrunk to %d events (from %d) in %d oracle runs:@."
        (List.length small.Trace.events)
        (List.length trace.Trace.events)
        runs;
      List.iteri
        (fun i ev -> Format.printf "  %2d: %a@." i Trace.pp_event ev)
        small.Trace.events;
      match out with
      | Some path ->
          Trace.save small path;
          Format.printf "wrote reproducer to %s (replay with: fastrule_cli \
                         conform --replay %s)@."
            path path
      | None -> ()
    end;
    exit (if ok then 0 else 1)
  in
  let events_arg =
    Arg.(
      value & opt int 200
      & info [ "e"; "events" ] ~docv:"COUNT" ~doc:"Workload events to generate.")
  in
  let pool_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "pool" ] ~docv:"N" ~doc:"Rule pool size (default 2n).")
  in
  let capacity_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "c"; "capacity" ] ~docv:"SLOTS"
          ~doc:"TCAM slots per agent (default 4n).")
  in
  let probes_arg =
    Arg.(
      value & opt int 8
      & info [ "probes" ] ~docv:"K"
          ~doc:"Lookup probes per event (TCAM winner vs linear scan).")
  in
  let fault_arg =
    Arg.(
      value & opt float 0.
      & info [ "fault" ] ~docv:"P"
          ~doc:"Inject write failures with this probability on the \
                FastRule agents.")
  in
  let fault_max_arg =
    Arg.(
      value & opt int (-1)
      & info [ "fault-max" ] ~docv:"N"
          ~doc:"Injection budget per agent (-1: unlimited).")
  in
  let break_arg =
    Arg.(
      value
      & opt_all break_conv []
      & info [ "break" ] ~docv:"SCHED[:MODE]"
          ~doc:"Sabotage a scheduler (reverse or drop-first) — the oracle \
                must catch it.  Repeatable.")
  in
  let record_arg =
    Arg.(
      value & flag
      & info [ "record" ]
          ~doc:"Embed each scheduler's emitted sequences in the report \
                trace (implied by --save).")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"PATH" ~doc:"Write the trace after the run.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"PATH"
          ~doc:"Replay a saved trace instead of generating one; embedded \
                recordings are checked for scheduler determinism.  A \
                divergence bundle directory re-runs its recorded fault, \
                batch and probe count.")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"On divergence, minimize the trace to a small reproducer.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH"
          ~doc:"Where to write the shrunk reproducer trace.")
  in
  let crash_at_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-at" ] ~docv:"K"
          ~doc:"Crash-recovery mode: drive the trace through a journaled \
                single-shard service per scheduler, kill it after K events, \
                recover, and check the recovered state against the committed \
                prefix (exit 1 on divergence).")
  in
  let crash_mid_arg =
    Arg.(
      value & flag
      & info [ "crash-mid-drain" ]
          ~doc:"With --crash-at: crash after the begin markers are durable \
                but before any commit.")
  in
  let crash_batch_arg =
    Arg.(
      value & opt int 4
      & info [ "crash-batch" ] ~docv:"OPS"
          ~doc:"Flush cadence in crash, failover and degraded mode.")
  in
  let failover_shard_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "failover" ] ~docv:"SHARD"
          ~doc:"Failover differential mode: drive the trace through a \
                multi-shard failover-enabled service with a persistent \
                latency fault on SHARD, heal, and check the converged \
                state against a never-faulted twin (exit 1 on divergence).")
  in
  let fo_shards_arg =
    Arg.(
      value & opt int 3
      & info [ "shards" ] ~docv:"N"
          ~doc:"Shard count in failover/degraded mode (>= 2).")
  in
  let degraded_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "degraded" ] ~docv:"FRAC"
          ~doc:"Degraded-hardware differential mode: seed a stuck-at-write \
                bank covering FRAC of shard 0's rows, drive the trace \
                through every scheduler on a failover-enabled service \
                (lookups checked against the semantic scan at every flush), \
                heal the hardware, probe-drill, and check the converged \
                state against a never-faulted twin (exit 1 on divergence or \
                an untouched bank).")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"With --degraded: treat a vacuous certification (a scheduler \
                that never wrote into the stuck bank) as a hard failure \
                instead of a warning.  CI passes this so a trace that stops \
                exercising the dead rows fails loudly rather than silently \
                certifying nothing.")
  in
  let domains_arg =
    domains_arg
      "Run the crash/failover/degraded services with N flush executors — \
       with N > 1 a clean oracle is the proof that the parallel drain path \
       is observationally equivalent to the sequential one (default: \
       FASTRULE_DOMAINS or 1)."
  in
  let capture_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "capture" ] ~docv:"DIR"
          ~doc:"On divergence in crash, failover or degraded mode, write a \
                replayable bundle (trace + fault + batch + probes + journal \
                copy) per diverging scheduler at DIR/<mode>-<scheduler>; \
                replay it with --replay DIR/<mode>-<scheduler>.")
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:"Differential conformance: one seeded workload through every \
             scheduler, cross-checked event by event (exit 1 on \
             divergence).")
    Term.(
      const run $ kind_arg $ n_arg $ seed_arg $ events_arg $ pool_arg
      $ capacity_arg $ probes_arg $ fault_arg $ fault_max_arg $ break_arg
      $ record_arg $ save_arg $ replay_arg $ shrink_arg $ out_arg
      $ crash_at_arg $ crash_mid_arg $ crash_batch_arg $ failover_shard_arg
      $ fo_shards_arg $ degraded_arg $ strict_arg $ domains_arg $ capture_arg)

(* --- cache ------------------------------------------------------------ *)

let cache_policy_conv =
  let parse s =
    match Cache_policy.kind_of_string s with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown cache policy %S (lru, fdrc or fdrc:<misses>)" s))
  in
  Arg.conv
    (parse, fun ppf k -> Format.pp_print_string ppf (Cache_policy.kind_to_string k))

let algo_conv =
  let parse s =
    match Firmware.algo_kind_of_string s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s))
  in
  Arg.conv
    (parse, fun ppf k -> Format.pp_print_string ppf (Firmware.algo_kind_name k))

let cache_cmd =
  let run kind n seed flows skew accesses slots shards flush_every policy algo
      oracle no_check probes domains json =
    if n < 1 then bad "-n must be >= 1 (got %d)" n;
    if flows < 1 then bad "--flows must be >= 1 (got %d)" flows;
    if skew < 0.0 || not (Float.is_finite skew) then
      bad "--skew must be finite and >= 0 (got %g)" skew;
    if accesses < 1 then bad "--accesses must be >= 1 (got %d)" accesses;
    if slots < 1 then bad "--slots must be >= 1 (got %d)" slots;
    if shards < 1 then bad "--shards must be >= 1 (got %d)" shards;
    if flush_every < 1 then bad "--batch must be >= 1 (got %d)" flush_every;
    if probes < 0 then bad "--probes must be >= 0 (got %d)" probes;
    let spec =
      {
        Cache_driver.kind;
        n;
        seed;
        flows;
        skew;
        accesses;
        slots;
        shards;
        flush_every;
        policy;
      }
    in
    let results =
      if oracle then Cache_driver.run_all ?domains ~probes spec
      else [ Cache_driver.run ~algo ?domains ~check:(not no_check) ~probes spec ]
    in
    List.iter
      (fun (r : Cache_driver.result) ->
        Cache_driver.pp_result Format.std_formatter r;
        List.iter
          (fun (d : Cache_driver.divergence) ->
            Format.printf "  DIVERGENCE at %d (%s): expected %s, got %s@."
              d.Cache_driver.at d.Cache_driver.where d.Cache_driver.expected
              d.Cache_driver.got)
          r.Cache_driver.divergences)
      results;
    (* The satellite one-liner: cache counters + the latency gauge of the
       last run's service, without digging through JSON. *)
    (match List.rev results with
    | last :: _ ->
        Format.printf "cache: hit %.1f%%  admitted %d  evicted %d  \
                       skipped %d  repairs %d  flushes %d@."
          (100.0 *. last.Cache_driver.hit_rate)
          last.Cache_driver.admitted last.Cache_driver.evicted
          last.Cache_driver.admit_skipped last.Cache_driver.repairs
          last.Cache_driver.rounds
    | [] -> ());
    Option.iter
      (fun path ->
        write_json path ~what:"cache results"
          (Telemetry.Json.List (List.map Cache_driver.result_json results)))
      json;
    let dirty =
      List.exists
        (fun (r : Cache_driver.result) -> r.Cache_driver.divergences <> [])
        results
    in
    if oracle then
      Format.printf "cache oracle: %d scheduler legs, %s@."
        (List.length results)
        (if dirty then "DIVERGED" else "all conformant");
    exit (if dirty then 1 else 0)
  in
  let flows_arg =
    Arg.(
      value & opt int 100_000
      & info [ "flows" ] ~docv:"COUNT"
          ~doc:"Flow-universe size (flows are lazy: millions are cheap).")
  in
  let skew_arg =
    Arg.(
      value & opt float 1.1
      & info [ "skew" ] ~docv:"S"
          ~doc:"Zipf exponent of the flow popularity (0 = uniform).")
  in
  let accesses_arg =
    Arg.(
      value & opt int 4_000
      & info [ "a"; "accesses" ] ~docv:"COUNT" ~doc:"Packets to stream.")
  in
  let slots_arg =
    Arg.(
      value & opt int 128
      & info [ "slots" ] ~docv:"N"
          ~doc:"Cache capacity in rules (the whole TCAM budget).")
  in
  let shards_arg =
    Arg.(
      value & opt int 2
      & info [ "s"; "shards" ] ~docv:"N" ~doc:"TCAM shards behind the tier.")
  in
  let batch_arg =
    Arg.(
      value & opt int 64
      & info [ "b"; "batch" ] ~docv:"ACCESSES"
          ~doc:"Maintenance cadence: buffered admissions/evictions flush \
                every BATCH accesses.")
  in
  let policy_arg =
    Arg.(
      value
      & opt cache_policy_conv Cache_policy.Lru
      & info [ "p"; "policy" ] ~docv:"POLICY"
          ~doc:"Admission/eviction policy: $(b,lru), $(b,fdrc) or \
                $(b,fdrc:<misses>).")
  in
  let algo_arg =
    Arg.(
      value
      & opt algo_conv (Firmware.FR_O Store.Bit_backend)
      & info [ "algo" ] ~docv:"SCHED"
          ~doc:"Scheduler for the cache TCAM (ignored with --oracle).")
  in
  let oracle_arg =
    Arg.(
      value & flag
      & info [ "oracle" ]
          ~doc:"Conformance sweep: replay the same stream through every \
                scheduler with full checking; exit 1 on any divergence.")
  in
  let no_check_arg =
    Arg.(
      value & flag
      & info [ "no-check" ]
          ~doc:"Skip per-hit verification (bench mode; meaningless with \
                --oracle).")
  in
  let probes_arg =
    Arg.(
      value & opt int 8
      & info [ "probes" ] ~docv:"K"
          ~doc:"Oracle probes at each flush boundary (including \
                mid-eviction).")
  in
  let domains_arg =
    domains_arg
      "Flush executors for the tier's service (default: FASTRULE_DOMAINS or \
       1)."
  in
  let json_arg = json_arg "Dump the per-run results as JSON." in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"TCAM-as-cache tier under Zipf flow traffic: dependency-safe \
             admission/eviction over a software backing table, with a \
             cached-vs-full-table conformance oracle.")
    Term.(
      const run $ kind_arg $ n_arg $ seed_arg $ flows_arg $ skew_arg
      $ accesses_arg $ slots_arg $ shards_arg $ batch_arg $ policy_arg
      $ algo_arg $ oracle_arg $ no_check_arg $ probes_arg $ domains_arg
      $ json_arg)

(* --- plane ------------------------------------------------------------ *)

let plane_cmd =
  let run kind n seed flows skew ops shards capacity batch readers min_lookups
      rebuild_every algo sweep no_oracle events probes max_p99_ms domains json =
    if n < 1 then bad "-n must be >= 1 (got %d)" n;
    if flows < 1 then bad "--flows must be >= 1 (got %d)" flows;
    if skew < 0.0 || not (Float.is_finite skew) then
      bad "--skew must be finite and >= 0 (got %g)" skew;
    if ops < 1 then bad "--ops must be >= 1 (got %d)" ops;
    if shards < 1 then bad "--shards must be >= 1 (got %d)" shards;
    if capacity < 1 then bad "--capacity must be >= 1 (got %d)" capacity;
    if batch < 1 then bad "--batch must be >= 1 (got %d)" batch;
    if readers < 1 then bad "--readers must be >= 1 (got %d)" readers;
    if min_lookups < 1 then bad "--min-lookups must be >= 1 (got %d)" min_lookups;
    if rebuild_every < 1 then
      bad "--rebuild-every must be >= 1 (got %d)" rebuild_every;
    if events < 0 then bad "--events must be >= 0 (got %d)" events;
    if probes < 1 then bad "--probes must be >= 1 (got %d)" probes;
    let spec =
      {
        Plane.kind;
        n;
        seed;
        flows;
        skew;
        ops;
        shards;
        capacity;
        batch;
        readers;
        min_lookups;
        rebuild_every;
      }
    in
    let results =
      preloading ~rules:n ~shards ~capacity (fun () ->
          if sweep then Plane.run_all ?domains spec
          else [ Plane.run ~algo ?domains spec ])
    in
    List.iter (fun r -> Plane.pp_result Format.std_formatter r) results;
    let disagreements =
      List.fold_left (fun acc (r : Plane.result) -> acc + r.Plane.disagree) 0
        results
    in
    if disagreements > 0 then
      Format.printf
        "plane: %d TCAM-vs-software lookup disagreements (BUG)@." disagreements;
    let p99_breach =
      if max_p99_ms <= 0.0 then None
      else
        List.find_map
          (fun (r : Plane.result) ->
            let worst =
              Float.max r.Plane.tcam_lat.Measure.p99 r.Plane.soft_lat.Measure.p99
            in
            if worst > max_p99_ms *. 1e6 then
              Some (Firmware.algo_kind_name r.Plane.algo, worst)
            else None)
          results
    in
    (match p99_breach with
    | Some (name, worst) ->
        Format.printf "plane: p99 gate breached on %s (%.0f ns > %.0f ms)@."
          name worst max_p99_ms
    | None -> ());
    (* The mid-cascade proof: every snapshot a scheduler publishes while
       a flow-mod cascades must answer like the semantic table before or
       after the mod — all five schedulers, exit 1 on divergence. *)
    let oracle_dirty =
      if no_oracle || events = 0 then false
      else begin
        let initial = min n 400 in
        let trace =
          Trace.generate ~kind ~seed ~initial ~pool:(2 * initial)
            ~capacity:(4 * initial) ~events ()
        in
        let report =
          Oracle.run ~config:{ Oracle.default_config with probes } trace
        in
        Oracle.pp_report Format.std_formatter report;
        Oracle.pp_timing Format.err_formatter report;
        if report.Oracle.snapshots_checked = 0 then begin
          Format.printf "plane oracle: no snapshots captured (BUG)@.";
          true
        end
        else not (Oracle.clean report)
      end
    in
    Option.iter
      (fun path ->
        write_json path ~what:"plane results"
          (Telemetry.Json.List (List.map Plane.result_json results)))
      json;
    let dirty = disagreements > 0 || p99_breach <> None || oracle_dirty in
    Format.printf "plane: %d storm leg%s, %s@." (List.length results)
      (if List.length results = 1 then "" else "s")
      (if dirty then "DIVERGED" else "all conformant");
    exit (if dirty then 1 else 0)
  in
  let flows_arg =
    Arg.(
      value & opt int 20_000
      & info [ "flows" ] ~docv:"COUNT"
          ~doc:"Flow-universe size for the LGEN readers.")
  in
  let skew_arg =
    Arg.(
      value & opt float 1.1
      & info [ "skew" ] ~docv:"S"
          ~doc:"Zipf exponent of the flow popularity (0 = uniform).")
  in
  let ops_arg =
    Arg.(
      value & opt int 4_000
      & info [ "u"; "ops" ] ~docv:"COUNT"
          ~doc:"Update-storm flow-mods flushed while the readers measure.")
  in
  let shards_arg =
    Arg.(
      value & opt int 4
      & info [ "s"; "shards" ] ~docv:"N"
          ~doc:"Service shards; the readers target shard 0's snapshots.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 1_500
      & info [ "c"; "capacity" ] ~docv:"SLOTS" ~doc:"TCAM slots per shard.")
  in
  let batch_arg =
    Arg.(
      value & opt int 32
      & info [ "b"; "batch" ] ~docv:"OPS" ~doc:"Storm ops per flush window.")
  in
  let readers_arg =
    Arg.(
      value & opt int 1
      & info [ "readers" ] ~docv:"N" ~doc:"LGEN reader domains.")
  in
  let min_lookups_arg =
    Arg.(
      value & opt int 2_000
      & info [ "min-lookups" ] ~docv:"N"
          ~doc:"Per-reader sample floor (keeps short storms measurable).")
  in
  let rebuild_every_arg =
    Arg.(
      value & opt int 256
      & info [ "rebuild-every" ] ~docv:"LOOKUPS"
          ~doc:"Software-backend recompile period, in lookups.")
  in
  let algo_arg =
    Arg.(
      value
      & opt algo_conv (Firmware.FR_O Store.Bit_backend)
      & info [ "algo" ] ~docv:"SCHED"
          ~doc:"Scheduler driving the storm (ignored with --sweep).")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:"Run the storm once per scheduler (five legs, same spec).")
  in
  let no_oracle_arg =
    Arg.(
      value & flag
      & info [ "no-oracle" ]
          ~doc:"Skip the mid-cascade snapshot-consistency oracle.")
  in
  let events_arg =
    Arg.(
      value & opt int 120
      & info [ "e"; "events" ] ~docv:"COUNT"
          ~doc:"Oracle trace length (0 also skips the oracle).")
  in
  let probes_arg =
    Arg.(
      value & opt int 8
      & info [ "probes" ] ~docv:"K" ~doc:"Oracle probe packets per event.")
  in
  let max_p99_arg =
    Arg.(
      value & opt float 0.0
      & info [ "max-p99-ms" ] ~docv:"MS"
          ~doc:"Sanity gate: exit 1 if any leg's lookup p99 exceeds this \
                many milliseconds (0 = off).")
  in
  let domains_arg =
    domains_arg "Flush executors for the storm (default: FASTRULE_DOMAINS or 1)."
  in
  let json_arg = json_arg "Dump the per-leg results as JSON." in
  Cmd.v
    (Cmd.info "plane"
       ~doc:"Lookup-under-update data plane: wait-free snapshot lookups \
             with p50/p99/p999 measured while update storms flush, a \
             TupleChain-style software backend raced against the TCAM \
             emulation, and a mid-cascade snapshot-consistency oracle.")
    Term.(
      const run $ kind_arg $ n_arg $ seed_arg $ flows_arg $ skew_arg $ ops_arg
      $ shards_arg $ capacity_arg $ batch_arg $ readers_arg $ min_lookups_arg
      $ rebuild_every_arg $ algo_arg $ sweep_arg $ no_oracle_arg $ events_arg
      $ probes_arg $ max_p99_arg $ domains_arg $ json_arg)

(* --- net -------------------------------------------------------------- *)

let shape_conv =
  let parse s =
    match Net_topo.shape_of_string s with
    | Some sh -> Ok sh
    | None ->
        Error (`Msg (Printf.sprintf "unknown shape %S (line, ring or tree)" s))
  in
  Arg.conv
    (parse, fun ppf sh -> Format.pp_print_string ppf (Net_topo.shape_to_string sh))

let net_cmd =
  let run shape nodes flows reroute withdraw introduce waypoints seed batch
      shards capacity algo oracle chaos cases fault_specs abort_at hold
      deadline no_check samples domains journal json =
    if flows < 1 then bad "--flows must be >= 1 (got %d)" flows;
    if batch < 1 then bad "--batch must be >= 1 (got %d)" batch;
    if shards < 1 then bad "--shards must be >= 1 (got %d)" shards;
    if capacity < 1 then bad "--capacity must be >= 1 (got %d)" capacity;
    if samples < 1 then bad "--samples must be >= 1 (got %d)" samples;
    if cases < 1 then bad "--cases must be >= 1 (got %d)" cases;
    if deadline <= 0. then bad "--deadline must be > 0 (got %g)" deadline;
    List.iter
      (fun (name, v) -> if v < 0 then bad "--%s must be >= 0 (got %d)" name v)
      [ ("reroute", reroute); ("withdraw", withdraw);
        ("introduce", introduce); ("waypoints", waypoints) ];
    (match abort_at with
    | Some k when k < 0 -> bad "--abort-at must be >= 0 (got %d)" k
    | _ -> ());
    let faults =
      Net_scenario.schedule_of_faults
        (List.map
           (fun s ->
             match Net_scenario.fault_of_string s with
             | Ok f -> f
             | Error e -> bad "--node-fault: %s" e)
           fault_specs)
    in
    let module J = Telemetry.Json in
    let domains_used =
      match domains with Some d -> d | None -> Ctrl.default_domains ()
    in
    (* Every scheduler over the cases; a policy the switches cannot hold
       is a usage error. *)
    let oracle_run ~what params cases =
      let r =
        try Oracle.run_fleet ~samples ~shards ~capacity ?domains cases
        with Invalid_argument m -> bad "%s" m
      in
      Oracle.pp_fleet_report Format.std_formatter r;
      Option.iter
        (fun path ->
          write_json path ~what (J.Obj (params @ Oracle.fleet_json r)))
        json;
      exit (if Oracle.fleet_clean r then 0 else 1)
    in
    if chaos then
      (* seeded fleet-loss certification: random scenarios under random
         per-switch fault schedules, all five schedulers per case *)
      oracle_run ~what:"chaos results"
        [
          ("mode", J.Str "chaos");
          ("seed", J.Int seed);
          ("cases", J.Int cases);
          ("shards", J.Int shards);
          ("capacity", J.Int capacity);
          ("domains", J.Int domains_used);
        ]
        (Oracle.chaos_cases ~shards ~capacity ~seed cases);
    let topo =
      try Net_topo.make shape nodes with Invalid_argument m -> bad "%s" m
    in
    let sc =
      try
        Net_scenario.make ~flows ~reroute ~withdraw ~introduce ~waypoints ~seed
          topo
      with Invalid_argument m -> bad "%s" m
    in
    let plan =
      match Net_scenario.plan ~batch sc with
      | Ok p -> p
      | Error e -> bad "cannot plan rollout: %s" e
    in
    let params =
      [
        ("shape", J.Str (Net_topo.shape_name topo));
        ("nodes", J.Int (Net_topo.nodes topo));
        ("flows", J.Int (List.length sc.old_policy));
        ("new_flows", J.Int (List.length sc.new_policy));
        ("seed", J.Int seed);
        ("batch", J.Int batch);
        ("shards", J.Int shards);
        ("capacity", J.Int capacity);
        ("domains", J.Int domains_used);
        ("rounds", J.Int (Net_plan.num_rounds plan));
        ("total_mods", J.Int (Net_plan.total_mods plan));
      ]
    in
    let supervision =
      if faults = [] && hold = None then None
      else
        Some
          {
            Net.default_supervision with
            deadline_ms = deadline;
            hold = (match hold with Some `Abort -> Net.Abort | _ -> Net.Wait);
            hold_budget = (match hold with Some `Abort -> 4 | _ -> 16);
            sup_seed = seed;
          }
    in
    if oracle then
      oracle_run ~what:"net results"
        (params @ [ ("mode", J.Str "oracle") ])
        [ { Oracle.plan; faults; supervision; abort_at } ];
    (* pure-model pre-check: the planner's output is certified before a
       single flow-mod reaches a service *)
    if not no_check then begin
      match Net_check.check_plan ~samples ~seed plan with
      | Ok () -> ()
      | Error vs ->
          List.iter (fun v -> Format.eprintf "  INCONSISTENT: %s@." v) vs;
          bad "plan failed the transient-path check (%d violations)"
            (List.length vs)
    end;
    let fleet, report =
      try
        let fleet =
          Net.of_policy ~kind:algo ~shards ~capacity ?domains ?journal topo
            sc.old_policy
        in
        ( fleet,
          Net.execute
            ?faults:(if faults = [] then None else Some faults)
            ?supervision ?abort_after_rounds:abort_at fleet plan )
      with Invalid_argument m -> bad "%s" m
    in
    Format.printf "%a" Net_plan.pp plan;
    Format.printf "%a@." Net.pp_report report;
    (* compact every node's WAL into a rules checkpoint: the snapshot
       an aborted rollout leaves must be byte-identical to the
       pre-rollout one (the abort drill compares them) *)
    if journal <> None then Net.checkpoint fleet;
    (* a completed rollout must land on the new policy, an aborted one
       back on the old — the same model check the oracle applies *)
    let converged = Oracle.fleet_converged plan fleet report.Net.outcome in
    Format.printf "net: %d rounds  %d mods  %d switches  %s@."
      report.Net.rounds_run report.Net.applied (Net_topo.nodes topo)
      (match converged with
      | Ok target -> "converged on the " ^ target
      | Error _ -> "DID NOT converge");
    Option.iter
      (fun path ->
        write_json path ~what:"net results"
          (J.Obj
             (params
             @ [
                 ("mode", J.Str "rollout");
                 ("algo", J.Str (Net.kind_name fleet));
                 ("converged", J.Bool (Result.is_ok converged));
                 ("faults", J.List (List.map (fun s -> J.Str s) fault_specs));
               ]
             @ Net.report_json report)))
      json;
    (* a converged rollout is completed or aborted; a completed one must
       also leave no flow-mod failed *)
    exit
      (if Result.is_ok converged
          && not (report.Net.completed && report.Net.failed > 0)
       then 0
       else 1)
  in
  let shape_arg =
    Arg.(
      value
      & opt shape_conv Net_topo.Ring
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:"Topology shape: $(b,line), $(b,ring) or $(b,tree).")
  in
  let nodes_arg =
    Arg.(
      value & opt int 6
      & info [ "nodes" ] ~docv:"N" ~doc:"Switches in the fabric.")
  in
  let flows_arg =
    Arg.(
      value & opt int 6
      & info [ "flows" ] ~docv:"COUNT" ~doc:"Flows in the old policy.")
  in
  let reroute_arg =
    Arg.(
      value & opt int 2
      & info [ "reroute" ] ~docv:"COUNT"
          ~doc:"Flows the new policy moves to a different path.")
  in
  let withdraw_arg =
    Arg.(
      value & opt int 1
      & info [ "withdraw" ] ~docv:"COUNT"
          ~doc:"Flows the new policy drops entirely.")
  in
  let introduce_arg =
    Arg.(
      value & opt int 1
      & info [ "introduce" ] ~docv:"COUNT"
          ~doc:"Fresh flows the new policy adds.")
  in
  let waypoints_arg =
    Arg.(
      value & opt int 2
      & info [ "waypoints" ] ~docv:"COUNT"
          ~doc:"Flows carrying a mandatory waypoint.")
  in
  let batch_arg =
    Arg.(
      value & opt int 4
      & info [ "b"; "batch" ] ~docv:"MODS"
          ~doc:"Per-switch flow-mod budget per round.")
  in
  let shards_arg =
    Arg.(
      value & opt int 2
      & info [ "s"; "shards" ] ~docv:"N" ~doc:"TCAM shards per switch.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 64
      & info [ "capacity" ] ~docv:"SLOTS" ~doc:"TCAM slots per shard.")
  in
  let algo_arg =
    Arg.(
      value
      & opt algo_conv (Firmware.FR_O Store.Bit_backend)
      & info [ "algo" ] ~docv:"SCHED"
          ~doc:"Scheduler for every switch (ignored with --oracle).")
  in
  let oracle_arg =
    Arg.(
      value & flag
      & info [ "oracle" ]
          ~doc:"Transient-path sweep: roll the same plan out under every \
                scheduler, probing consistency and waypoints at every round \
                boundary and mid-flush instant; exit 1 on any divergence. \
                Honours $(b,--node-fault), $(b,--hold), $(b,--deadline) and \
                $(b,--abort-at): a run that wedges or fails to converge \
                diverges.")
  in
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:"Switch-loss certification: run $(b,--cases) seeded random \
                rollouts, each under a random per-switch fault schedule \
                (crashes, slow acks, stuck TCAM banks) with supervision \
                and compensating rollback engaged, across every scheduler; \
                exit 1 on any divergence.")
  in
  let cases_arg =
    Arg.(
      value & opt int 100
      & info [ "cases" ] ~docv:"N"
          ~doc:"Fault schedules to certify with $(b,--chaos).")
  in
  let node_fault_arg =
    Arg.(
      value & opt_all string []
      & info [ "node-fault" ] ~docv:"SPEC"
          ~doc:"Inject a per-switch fault (repeatable): \
                $(b,NODE:crash@ROUND)[$(b,+mid)], \
                $(b,NODE:slow@ROUND=MS)[$(b,x)$(i,HEAL)] or \
                $(b,NODE:stuck@ROUND=SHARD:A+B).  Crash faults need \
                $(b,--journal).")
  in
  let abort_at_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "abort-at" ] ~docv:"ROUND"
          ~doc:"Abort the rollout at this committed round boundary and roll \
                back to the pre-rollout policy.")
  in
  let hold_arg =
    Arg.(
      value
      & opt (some (enum [ ("wait", `Wait); ("abort", `Abort) ])) None
      & info [ "hold" ] ~docv:"POLICY"
          ~doc:"What to do when a round cannot complete: $(b,wait) parks the \
                rollout (resumable from the journal), $(b,abort) rolls back. \
                Implies supervision even without $(b,--node-fault).")
  in
  let deadline_arg =
    Arg.(
      value & opt float 50.0
      & info [ "deadline" ] ~docv:"MS"
          ~doc:"Per-switch modelled deadline for one flush attempt under \
                supervision.")
  in
  let no_check_arg =
    Arg.(
      value & flag
      & info [ "no-check" ]
          ~doc:"Skip the pure-model plan certification (meaningless with \
                --oracle).")
  in
  let samples_arg =
    Arg.(
      value & opt int 2
      & info [ "samples" ] ~docv:"K"
          ~doc:"Packets traced per stamped flow at each probe point.")
  in
  let domains_arg =
    domains_arg
      "Executors for the fleet fan-out and every switch service (default: \
       FASTRULE_DOMAINS or 1)."
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:"Journal the rollout (one sub-journal per switch plus the \
                rollout log); recover with the library's Net.recover.")
  in
  let json_arg = json_arg "Dump the run as JSON." in
  Cmd.v
    (Cmd.info "net"
       ~doc:"Network-wide consistent updates: plan an old $(b,->) new policy \
             rollout as two-phase rounds over a switch fleet, execute it, \
             and (with $(b,--oracle)) prove no packet ever sees a mixed \
             path or skips a waypoint.")
    Term.(
      const run $ shape_arg $ nodes_arg $ flows_arg $ reroute_arg
      $ withdraw_arg $ introduce_arg $ waypoints_arg $ seed_arg $ batch_arg
      $ shards_arg $ capacity_arg $ algo_arg $ oracle_arg $ chaos_arg
      $ cases_arg $ node_fault_arg $ abort_at_arg $ hold_arg $ deadline_arg
      $ no_check_arg $ samples_arg $ domains_arg $ journal_arg $ json_arg)

(* A flag value cmdliner cannot parse is a usage error like those the
   command bodies catch, so it exits 2 too (cmdliner's own code is 124). *)
let () =
  let doc = "FastRule (ICDCS'18) reproduction toolkit" in
  exit
    (match
       Cmd.eval_value
         (Cmd.group
            (Cmd.info "fastrule_cli" ~doc)
            [
              stats_cmd;
              generate_cmd;
              run_cmd;
              ctrl_cmd;
              journal_cmd;
              conform_cmd;
              cache_cmd;
              plane_cmd;
              net_cmd;
            ])
     with
    | Ok _ -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
