(* Tests for graceful degradation: the slow-call breaker policy, epoch
   fencing in the coalescing queue, rendezvous failover routing, whole-shard
   restart faults, journal retention/observability, divergence bundles, and
   the headline property — under random divert/heal/restart schedules the
   final state equals a never-faulted twin. *)

open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rec rm_rf dir =
  try
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p
        else try Sys.remove p with Sys_error _ -> ())
      (Sys.readdir dir);
    Sys.rmdir dir
  with Sys_error _ -> ()

let mk_rule ?(action = Rule.Forward 1) ?(priority = 24) id =
  Rule.make ~id
    ~field:
      (Header.pack
         {
           Header.wildcard with
           Header.dst_ip =
             Ternary.prefix_of_int64 ~width:32 ~plen:24
               (Int64.of_int (0x0A000000 + (id * 256)));
         })
    ~action ~priority

let service_image svc =
  let acc = ref [] in
  for s = 0 to Ctrl.shards svc - 1 do
    List.iter
      (fun (r : Rule.t) ->
        acc := (s, r.Rule.id, r.Rule.priority, r.Rule.action) :: !acc)
      (Agent.rules (Shard.agent (Ctrl.shard svc s)))
  done;
  List.sort compare !acc

let consistent svc =
  let ok = ref true in
  for s = 0 to Ctrl.shards svc - 1 do
    match Agent.verify_consistent (Shard.agent (Ctrl.shard svc s)) with
    | Ok () -> ()
    | Error _ -> ok := false
  done;
  !ok

let sum_tele svc f =
  let acc = ref 0 in
  for s = 0 to Ctrl.shards svc - 1 do
    acc := !acc + f (Shard.telemetry (Ctrl.shard svc s))
  done;
  !acc

(* --- breaker slow-call policy ------------------------------------------ *)

let test_breaker_slow_calls () =
  let b = Breaker.create ~threshold:3 ~slow_threshold:2 ~cooldown:1 () in
  Breaker.note_slow b;
  check "one slow drain stays closed" true (Breaker.state b = Breaker.Closed);
  Breaker.note_slow b;
  check "slow streak trips" true (Breaker.state b = Breaker.Open);
  check_int "one open" 1 (Breaker.opens b);
  Breaker.note_skipped b;
  check "cooldown expires" true (Breaker.state b = Breaker.Half_open);
  (* a slow half-open probe is as damning as a failed one *)
  Breaker.note_slow b;
  check "slow probe re-opens" true (Breaker.state b = Breaker.Open);
  Breaker.note_skipped b;
  Breaker.note_success b;
  check "fast probe closes" true (Breaker.state b = Breaker.Closed);
  (* success resets the slow streak *)
  Breaker.note_slow b;
  Breaker.note_success b;
  Breaker.note_slow b;
  check "success breaks the slow streak" true
    (Breaker.state b = Breaker.Closed);
  (* the slow and failure streaks are independent: slow drains don't
     excuse failures *)
  let b2 = Breaker.create ~threshold:2 ~slow_threshold:5 ~cooldown:1 () in
  Breaker.note_failure b2;
  Breaker.note_slow b2;
  Breaker.note_failure b2;
  check "slow drain does not reset the failure streak" true
    (Breaker.state b2 = Breaker.Open);
  (* slow_threshold = 0 disables the policy entirely *)
  let b3 = Breaker.create ~threshold:2 ~slow_threshold:0 ~cooldown:1 () in
  for _ = 1 to 10 do
    Breaker.note_slow b3
  done;
  check "disabled slow policy never trips" true
    (Breaker.state b3 = Breaker.Closed)

(* --- epoch fence -------------------------------------------------------- *)

let test_epoch_fence () =
  let q = Coalesce.create () in
  let r1 = mk_rule 1 in
  check "add queued under epoch 0" true
    (Coalesce.push ~epoch:0 q ~installed:false (Agent.Add r1)
    = Coalesce.Queued);
  (* same id, different epoch: the id would be straddling two shard
     placements — fenced *)
  (match
     Coalesce.push ~epoch:1 q ~installed:false
       (Agent.Set_action { id = 1; action = Rule.Drop })
   with
  | Coalesce.Rejected msg ->
      check "fence names the epochs" true
        (String.length msg >= 11 && String.sub msg 0 11 = "epoch fence")
  | _ -> Alcotest.fail "cross-epoch push was not fenced");
  (* same epoch folds as always *)
  check "same-epoch push folds" true
    (Coalesce.push ~epoch:0 q ~installed:false
       (Agent.Set_action { id = 1; action = Rule.Drop })
    = Coalesce.Folded);
  (* fencing is per id: another id can live under another epoch *)
  check "other id under other epoch is fine" true
    (Coalesce.push ~epoch:1 q ~installed:false (Agent.Add (mk_rule 2))
    = Coalesce.Queued);
  (* unfenced pushes (no epoch) keep the pre-failover behaviour *)
  check "epoch-less push unaffected" true
    (Coalesce.push q ~installed:false (Agent.Add (mk_rule 3))
    = Coalesce.Queued);
  (* once the queue drains (clear), the id can re-home *)
  Coalesce.clear q;
  check "after clear the id accepts a new epoch" true
    (Coalesce.push ~epoch:1 q ~installed:false (Agent.Add r1)
    = Coalesce.Queued)

(* --- rendezvous routing ------------------------------------------------- *)

let test_rendezvous () =
  let p = Partition.create ~shards:4 Partition.Hash_id in
  let all _ = true in
  for id = 0 to 200 do
    match Partition.rendezvous p ~healthy:all id with
    | None -> Alcotest.fail "no pick with every shard healthy"
    | Some s ->
        check "pick in range" true (s >= 0 && s < 4);
        check "deterministic" true
          (Partition.rendezvous p ~healthy:all id = Some s)
  done;
  check "single healthy shard always wins" true
    (Partition.rendezvous p ~healthy:(fun s -> s = 2) 77 = Some 2);
  check "no healthy shard: none" true
    (Partition.rendezvous p ~healthy:(fun _ -> false) 77 = None);
  (* minimal disruption: quarantining shard 0 only re-routes ids shard 0
     was winning *)
  for id = 0 to 200 do
    match Partition.rendezvous p ~healthy:all id with
    | Some 0 -> ()
    | Some s ->
        check "survivors keep their shard" true
          (Partition.rendezvous p ~healthy:(fun x -> x <> 0) id = Some s)
    | None -> ()
  done

(* --- slow fault trips the service breaker -------------------------------- *)

let test_slow_fault_trips_breaker () =
  let pool = Dataset.generate Dataset.ACL4 ~seed:11 ~n:120 in
  let resil =
    {
      Ctrl.default_resil with
      Ctrl.slow_drain_ms = 2.0;
      breaker_slow_threshold = 2;
      breaker_cooldown = 2;
    }
  in
  let svc = Ctrl.create ~resil ~shards:2 ~capacity:400 () in
  Ctrl.set_fault svc ~shard:0 (Some (Fault.create ~slow_ms:8.0 ~seed:1 ()));
  Array.iteri
    (fun i r ->
      Ctrl.submit svc (Agent.Add r);
      if (i + 1) mod 10 = 0 then ignore (Ctrl.flush svc))
    pool;
  ignore (Ctrl.flush svc);
  let tele0 = Shard.telemetry (Ctrl.shard svc 0) in
  check "slow shard quarantined" true (Ctrl.breaker_state svc 0 = Breaker.Open
                                      || Ctrl.breaker_state svc 0 = Breaker.Half_open);
  check "slow drains recorded" true (Telemetry.slow_drains tele0 >= 2);
  check "breaker opened at least once" true (Telemetry.breaker_opens tele0 >= 1);
  check_int "latency faults fail nothing" 0 (sum_tele svc Telemetry.failed);
  check "healthy sibling untouched" true
    (Ctrl.breaker_state svc 1 = Breaker.Closed
    && Telemetry.slow_drains (Shard.telemetry (Ctrl.shard svc 1)) = 0)

(* --- failover acceptance scenario ---------------------------------------- *)

(* One shard under a persistent latency fault, failover on: the run must
   shed nothing, fail nothing, divert new ids to healthy shards, and —
   after the heal — rebalance every diverted id home, landing on exactly
   the state of a never-faulted twin. *)
let test_failover_acceptance () =
  let pool = Dataset.generate Dataset.ACL4 ~seed:7 ~n:360 in
  let preload = Array.sub pool 0 60 in
  let resil =
    {
      Ctrl.default_resil with
      Ctrl.failover = true;
      slow_drain_ms = 2.0;
      breaker_slow_threshold = 2;
      breaker_cooldown = 2;
    }
  in
  let drive faulted =
    let svc = Ctrl.of_rules ~resil ~shards:3 ~capacity:800 preload in
    if faulted then
      Ctrl.set_fault svc ~shard:0 (Some (Fault.create ~slow_ms:8.0 ~seed:2 ()));
    for i = 60 to Array.length pool - 1 do
      Ctrl.submit svc (Agent.Add pool.(i));
      if (i + 1) mod 16 = 0 then ignore (Ctrl.flush svc)
    done;
    if Ctrl.pending svc > 0 then ignore (Ctrl.flush svc);
    svc
  in
  let svc = drive true in
  let twin = drive false in
  check_int "zero shed" 0 (sum_tele svc Telemetry.shed);
  check_int "zero failed" 0 (sum_tele svc Telemetry.failed);
  check "ids were diverted" true (sum_tele svc Telemetry.diverted > 0);
  check "overlay non-empty before heal" true (Ctrl.diverted_count svc > 0);
  (* heal, then flush until the overlay drains home *)
  Ctrl.set_fault svc ~shard:0 None;
  let rounds = ref 0 in
  while
    (Ctrl.diverted_count svc > 0 || Ctrl.pending svc > 0) && !rounds < 50
  do
    ignore (Ctrl.flush svc);
    incr rounds
  done;
  check_int "overlay converges to zero" 0 (Ctrl.diverted_count svc);
  check "rebalances recorded" true (sum_tele svc Telemetry.rebalanced > 0);
  for s = 0 to 2 do
    check "breaker closed after heal" true
      (Ctrl.breaker_state svc s = Breaker.Closed)
  done;
  check "consistent after failover" true (consistent svc);
  (* placement converged back to the static partition: the per-shard
     image, not just the union, equals the twin's *)
  check "final state equals never-faulted twin" true
    (service_image svc = service_image twin)

(* --- whole-shard restart fault ------------------------------------------- *)

let test_restart_shard () =
  let pool = Dataset.generate Dataset.ACL4 ~seed:13 ~n:200 in
  let preload = Array.sub pool 0 40 in
  let dir = Journal.fresh_dir ~prefix:"fr-test-restart" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let svc = Ctrl.of_rules ~journal:dir ~shards:2 ~capacity:400 preload in
      let twin = Ctrl.of_rules ~shards:2 ~capacity:400 preload in
      let both fm =
        Ctrl.submit svc fm;
        Ctrl.submit twin fm
      in
      for i = 40 to 99 do
        both (Agent.Add pool.(i));
        if (i + 1) mod 10 = 0 then begin
          ignore (Ctrl.flush svc);
          ignore (Ctrl.flush twin)
        end
      done;
      both (Agent.Remove { id = pool.(45).Rule.id });
      (* kill shard 0's agent mid-run with intent still queued: the
         journal must rebuild the committed state and requeue the rest *)
      (match Ctrl.restart_shard svc ~shard:0 with
      | Error e -> Alcotest.failf "restart_shard: %s" e
      | Ok r ->
          check "restart replayed something" true
            (r.Ctrl.restart_replayed_drains > 0));
      check_int "restart recorded" 1 (sum_tele svc Telemetry.restarts);
      for i = 100 to 139 do
        both (Agent.Add pool.(i));
        if (i + 1) mod 10 = 0 then begin
          ignore (Ctrl.flush svc);
          ignore (Ctrl.flush twin)
        end
      done;
      ignore (Ctrl.flush svc);
      ignore (Ctrl.flush twin);
      check "consistent after restart" true (consistent svc);
      check "restarted service equals untouched twin" true
        (service_image svc = service_image twin);
      check "unjournaled service refuses restart" true
        (Result.is_error (Ctrl.restart_shard twin ~shard:0)))

(* --- journal retention and stat ------------------------------------------ *)

let test_checkpoint_retention () =
  let dir = Journal.fresh_dir ~prefix:"fr-test-retain" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let j = Journal.create ~dir ~shard:0 in
      for k = 1 to 3 do
        ignore (Journal.log_mod j (Agent.Add (mk_rule k)));
        Journal.checkpoint ~retain:2 j
          ~rules:(Array.init k (fun i -> mk_rule (i + 1)))
      done;
      Journal.sync j;
      (match Journal.stat ~dir ~shard:0 with
      | Error e -> Alcotest.failf "stat: %s" e
      | Ok st ->
          check_int "only the newest 2 checkpoint tables survive" 2
            (List.length st.Journal.checkpoints);
          (match st.Journal.checkpoints with
          | (newest, _, bytes) :: (older, _, _) :: _ ->
              check "newest first" true (newest > older);
              check "tables non-empty" true (bytes > 0)
          | _ -> Alcotest.fail "expected 2 checkpoints"));
      Journal.close j)

let test_journal_stat () =
  let dir = Journal.fresh_dir ~prefix:"fr-test-stat" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let j = Journal.create ~dir ~shard:0 in
      ignore (Journal.log_mod j (Agent.Add (mk_rule 1)));
      ignore (Journal.log_mod j (Agent.Add (mk_rule 2)));
      let d = Journal.log_begin j in
      Journal.log_commit j ~drain:d ~applied:2 ~failed:0;
      ignore (Journal.log_mod j (Agent.Add (mk_rule 3)));
      Journal.sync j;
      (match Journal.stat ~dir ~shard:0 with
      | Error e -> Alcotest.failf "stat: %s" e
      | Ok st ->
          check "wal has bytes" true (st.Journal.wal_bytes > 0);
          check "age is sane" true
            (st.Journal.wal_age_s >= 0.0 && st.Journal.wal_age_s < 3600.0);
          check_int "one drain" 1 st.Journal.total_drains;
          check_int "one committed" 1 st.Journal.committed_drains;
          check_int "one mod pending past the commit" 1 st.Journal.pending_mods;
          check "not interrupted" true (not st.Journal.interrupted));
      (* a begin without commit is the interrupted signature *)
      ignore (Journal.log_begin j);
      Journal.sync j;
      (match Journal.stat ~dir ~shard:0 with
      | Error e -> Alcotest.failf "stat: %s" e
      | Ok st -> check "interrupted detected" true st.Journal.interrupted);
      Journal.close j;
      check "stat of a missing shard errors" true
        (Result.is_error (Journal.stat ~dir ~shard:7)))

(* --- divergence bundles --------------------------------------------------- *)

let test_bundle_roundtrip () =
  let root = Journal.fresh_dir ~prefix:"fr-test-bundle" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let trace =
        Trace.generate ~kind:Dataset.ACL4 ~seed:5 ~initial:10 ~pool:20
          ~capacity:80 ~events:15 ()
      in
      (* a little journal to capture *)
      let jdir = Filename.concat root "j" in
      Journal.ensure_dir jdir;
      let j = Journal.create ~dir:jdir ~shard:0 in
      ignore (Journal.log_mod j (Agent.Add (mk_rule 1)));
      Journal.close j;
      let info =
        {
          Bundle.fault = Bundle.Crash { at = 12; mid_drain = true };
          batch = 4;
          probes = 8;
        }
      in
      let bdir =
        Bundle.write ~dir:(Filename.concat root "b") info ~trace
          ~journal:(Some jdir)
      in
      check "is_bundle" true (Bundle.is_bundle bdir);
      check "bare trace file is not a bundle" true
        (not (Bundle.is_bundle (Bundle.trace_file bdir)));
      check "journal captured" true (Bundle.journal_dir bdir <> None);
      (match Bundle.load bdir with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok (info', trace') ->
          check "info round-trips" true (info' = info);
          Alcotest.(check string)
            "trace round-trips" (Trace.to_string trace)
            (Trace.to_string trace'));
      (* the captured journal copy is readable recovery input *)
      match Bundle.journal_dir bdir with
      | None -> Alcotest.fail "journal dir vanished"
      | Some jd ->
          check "captured WAL readable" true
            (Result.is_ok (Journal.read_recovery ~dir:jd ~shard:0)))

(* A degraded bundle replays its own stuck bank: the dead fraction and the
   probe count ride in bundle.meta, so a replay equals the captured run
   rather than a default 10% bank probed 8 times. *)
let test_bundle_replays_degraded () =
  let root = Journal.fresh_dir ~prefix:"fr-test-bundle" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let trace =
        Trace.generate ~kind:Dataset.ACL4 ~seed:254 ~initial:20 ~pool:40
          ~capacity:160 ~events:40 ()
      in
      let fault = Oracle.Stuck { shards = 3; shard = 0; frac = 0.13 } in
      let info = { Bundle.fault; batch = 4; probes = 4 } in
      let bdir =
        Bundle.write ~dir:(Filename.concat root "b") info ~trace ~journal:None
      in
      match Bundle.load bdir with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok (info', trace') ->
          check "info round-trips" true (info' = info);
          let verdict (r : Oracle.service_report) =
            ( r.Oracle.fault,
              r.Oracle.seeded_dead,
              r.Oracle.lanes,
              r.Oracle.vacuous,
              r.Oracle.findings )
          in
          let direct = Oracle.run_service ~probes:4 ~batch:4 fault trace in
          let replayed =
            Oracle.run_service ~probes:info'.Bundle.probes
              ~batch:info'.Bundle.batch info'.Bundle.fault trace'
          in
          check "replay equals the direct run" true
            (verdict replayed = verdict direct))

(* bundle.meta is input: keys older writers never recorded take their
   old defaults, and an unknown mode is an error, never a crash replay. *)
let test_bundle_meta_parsing () =
  let root = Journal.fresh_dir ~prefix:"fr-test-bundle" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let trace =
        Trace.generate ~kind:Dataset.ACL4 ~seed:5 ~initial:10 ~pool:20
          ~capacity:80 ~events:15 ()
      in
      let bundle name meta =
        let dir = Filename.concat root name in
        Journal.ensure_dir dir;
        Trace.save trace (Bundle.trace_file dir);
        Out_channel.with_open_text (Filename.concat dir "bundle.meta")
          (fun oc -> Out_channel.output_string oc meta);
        Bundle.load dir
      in
      (match
         bundle "old"
           "fastrule-bundle 1\nmode degraded\nat 15\nmid_drain false\n\
            batch 4\nshards 3\nfault_shard 1\nslow_ms 0\n"
       with
      | Error e -> Alcotest.failf "old degraded bundle: %s" e
      | Ok (info, _) ->
          check "old bundle keeps today's defaults" true
            (info
            = {
                Bundle.fault =
                  Bundle.Stuck { shards = 3; shard = 1; frac = 0.10 };
                batch = 4;
                probes = 8;
              }));
      match bundle "bogus" "fastrule-bundle 1\nmode bogus\nbatch 4\n" with
      | Ok _ -> Alcotest.fail "unknown mode accepted"
      | Error e ->
          Alcotest.(check string)
            "error names the mode" "bundle: unknown mode \"bogus\"" e)

(* --- failover conformance oracle ------------------------------------------ *)

let test_failover_oracle_clean () =
  let trace =
    Trace.generate ~kind:Dataset.ACL4 ~seed:21 ~initial:30 ~pool:60
      ~capacity:240 ~events:80 ()
  in
  let r = Oracle.run_service ~probes:6 ~batch:4
      (Oracle.Slow { shards = 3; shard = 0; ms = 8.0 })
      trace in
  if not (Oracle.service_clean r) then
    Alcotest.failf "failover oracle diverged:@.%a" Oracle.pp_service_report r;
  List.iter
    (fun c ->
      check "fault engaged for every scheduler" true (c.Oracle.diverted > 0);
      check_int "nothing shed" 0 c.Oracle.shed;
      check_int "nothing failed" 0 c.Oracle.failed_ops)
    r.Oracle.lanes

(* --- the headline property ------------------------------------------------ *)

(* Random schedules of latency faults, heals and whole-shard restarts
   (never write failures: those legitimately change outcomes) against a
   failover-enabled journaled service: nothing sheds, nothing fails, and
   after healing everything the state converges to the never-faulted
   twin's — every id's ops applied in submission order on some shard. *)
let prop_divert_heal_convergence =
  QCheck.Test.make ~count:10
    ~name:"failover chaos -> heal converges to never-faulted twin"
    QCheck.(pair (int_bound 1_000) (int_bound 1_000))
    (fun (seed, chaos_seed) ->
      let spec =
        {
          Churn.kind = Dataset.ACL4;
          initial = 30;
          ops = 120;
          shards = 3;
          capacity = 600;
          batch = 10;
          seed;
        }
      in
      let resil =
        {
          Ctrl.default_resil with
          Ctrl.failover = true;
          slow_drain_ms = 2.0;
          breaker_slow_threshold = 2;
          breaker_cooldown = 1;
        }
      in
      let rng = Rng.create ~seed:chaos_seed in
      let chaos = ref [] in
      for _ = 1 to 1 + (chaos_seed mod 6) do
        let at_flush = Rng.int rng 12 in
        let shard = Rng.int rng spec.Churn.shards in
        let action =
          match Rng.int rng 3 with
          | 0 -> Churn.Chaos_slow (4.0 +. float_of_int (Rng.int rng 10))
          | 1 -> Churn.Chaos_heal
          | _ -> Churn.Chaos_restart
        in
        chaos := { Churn.at_flush; shard; action } :: !chaos
      done;
      let chaos =
        List.sort (fun a b -> compare a.Churn.at_flush b.Churn.at_flush) !chaos
      in
      let dir = Journal.fresh_dir ~prefix:"fr-test-chaos" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let r = Churn.run ~resil ~journal:dir ~chaos spec in
          let svc = r.Churn.service in
          if r.Churn.shed > 0 then
            QCheck.Test.fail_reportf "%d submits shed" r.Churn.shed;
          if r.Churn.failed > 0 then
            QCheck.Test.fail_reportf "%d ops failed under latency-only chaos"
              r.Churn.failed;
          for s = 0 to spec.Churn.shards - 1 do
            Ctrl.set_fault svc ~shard:s None
          done;
          let rounds = ref 0 in
          while
            (Ctrl.diverted_count svc > 0 || Ctrl.pending svc > 0)
            && !rounds < 60
          do
            ignore (Ctrl.flush svc);
            incr rounds
          done;
          if Ctrl.diverted_count svc > 0 then
            QCheck.Test.fail_reportf "overlay stuck at %d after %d rounds"
              (Ctrl.diverted_count svc) !rounds;
          let twin = Churn.run ~resil spec in
          if Ctrl.pending twin.Churn.service > 0 then
            ignore (Ctrl.flush twin.Churn.service);
          consistent svc
          && service_image svc = service_image twin.Churn.service))

let suite =
  [
    ( "failover",
      [
        Alcotest.test_case "breaker slow-call policy" `Quick
          test_breaker_slow_calls;
        Alcotest.test_case "coalesce epoch fence" `Quick test_epoch_fence;
        Alcotest.test_case "rendezvous routing" `Quick test_rendezvous;
        Alcotest.test_case "slow fault trips service breaker" `Quick
          test_slow_fault_trips_breaker;
        Alcotest.test_case "failover acceptance scenario" `Quick
          test_failover_acceptance;
        Alcotest.test_case "whole-shard restart fault" `Quick
          test_restart_shard;
        Alcotest.test_case "checkpoint retention" `Quick
          test_checkpoint_retention;
        Alcotest.test_case "journal stat" `Quick test_journal_stat;
        Alcotest.test_case "divergence bundle round-trip" `Quick
          test_bundle_roundtrip;
        Alcotest.test_case "degraded bundle replays its bank" `Quick
          test_bundle_replays_degraded;
        Alcotest.test_case "bundle meta defaults and unknown mode" `Quick
          test_bundle_meta_parsing;
        Alcotest.test_case "failover oracle clean" `Quick
          test_failover_oracle_clean;
        QCheck_alcotest.to_alcotest prop_divert_heal_convergence;
      ] );
  ]
