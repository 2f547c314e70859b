(* Tests for the Fr_resil supervision layer and its wiring through the
   control plane: journal record round-trips and torn-tail tolerance,
   backoff and breaker unit behaviour, supervisor retry and quarantine
   integration, and the headline crash-recovery property — a recovered
   service always equals the committed prefix of its journal. *)

open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let rm_rf dir =
  try
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
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

(* --- journal ----------------------------------------------------------- *)

let test_journal_entry_codec () =
  let entries =
    [
      Journal.Mod { seq = 1; fm = Agent.Add (mk_rule 7 ~action:Rule.Drop) };
      Journal.Mod { seq = 2; fm = Agent.Remove { id = 7 } };
      Journal.Mod
        { seq = 3; fm = Agent.Set_action { id = 9; action = Rule.Controller } };
      Journal.Mod
        { seq = 4; fm = Agent.Set_action { id = 9; action = Rule.Forward 5 } };
      Journal.Begin { drain = 2; upto = 4 };
      Journal.Commit { drain = 2; upto = 4; applied = 3; failed = 1 };
      Journal.Checkpoint { upto = 4; file = "shard-0-ckpt-4.rules" };
    ]
  in
  List.iter
    (fun e ->
      let s = Journal.entry_to_string e in
      match Journal.entry_of_string s with
      | Ok e' -> check_str "entry round-trips" s (Journal.entry_to_string e')
      | Error msg -> Alcotest.failf "cannot reparse %S: %s" s msg)
    entries;
  check "garbage rejected" true
    (Result.is_error (Journal.entry_of_string "x 1 2 3"));
  check "truncated commit rejected" true
    (Result.is_error (Journal.entry_of_string "c 2 4 3"))

let test_journal_write_read () =
  let dir = Journal.fresh_dir ~prefix:"fr-test-journal" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let j = Journal.create ~dir ~shard:0 in
      let s1 = Journal.log_mod j (Agent.Add (mk_rule 1)) in
      let s2 = Journal.log_mod j (Agent.Add (mk_rule 2)) in
      let d1 = Journal.log_begin j in
      Journal.log_commit j ~drain:d1 ~applied:2 ~failed:0;
      let s3 = Journal.log_mod j (Agent.Remove { id = 1 }) in
      let d2 = Journal.log_begin j in
      Journal.close j;
      (match Journal.read_recovery ~dir ~shard:0 with
      | Error e -> Alcotest.failf "read_recovery: %s" e
      | Ok r ->
          check "no checkpoint yet" true (r.Journal.checkpoint = None);
          (match r.Journal.committed with
          | [ c ] ->
              check_int "committed drain" d1 c.Journal.drain;
              check_int "committed upto" s2 c.Journal.upto;
              check_int "committed applied" 2 c.Journal.applied
          | l -> Alcotest.failf "expected 1 committed drain, got %d" (List.length l));
          check "all mods present" true
            (List.map fst r.Journal.mods = [ s1; s2; s3 ]);
          check "mid-drain begin detected" true r.Journal.interrupted;
          check_int "next_seq" (s3 + 1) r.Journal.next_seq;
          check_int "next_drain" (d2 + 1) r.Journal.next_drain);
      (* A torn tail — the partial line a crash mid-append leaves — is
         dropped, not reported. *)
      let path = Journal.dir_file ~dir ~shard:0 in
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_string oc "m 99 a 123";
      close_out oc;
      (match Journal.read_recovery ~dir ~shard:0 with
      | Error e -> Alcotest.failf "torn tail must be tolerated: %s" e
      | Ok r ->
          check "torn tail dropped" true
            (List.map fst r.Journal.mods = [ s1; s2; s3 ]));
      (* Corruption *before* the tail is real and must be reported. *)
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_string oc "\nc 9 9 9 9\n";
      close_out oc;
      check "mid-file garbage is an error" true
        (Result.is_error (Journal.read_recovery ~dir ~shard:0)))

let test_journal_checkpoint_compacts () =
  let dir = Journal.fresh_dir ~prefix:"fr-test-journal" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let j = Journal.create ~dir ~shard:1 in
      let _ = Journal.log_mod j (Agent.Add (mk_rule 1)) in
      let _ = Journal.log_mod j (Agent.Add (mk_rule 2)) in
      let d = Journal.log_begin j in
      Journal.log_commit j ~drain:d ~applied:2 ~failed:0;
      Journal.checkpoint j ~rules:[| mk_rule 1; mk_rule 2 |];
      let s4 = Journal.log_mod j (Agent.Remove { id = 2 }) in
      Journal.sync j;
      Journal.close j;
      match Journal.read_recovery ~dir ~shard:1 with
      | Error e -> Alcotest.failf "read_recovery: %s" e
      | Ok r ->
          (match r.Journal.checkpoint with
          | Some (upto, file) ->
              check_int "checkpoint covers the commit" 2 upto;
              (match Rules_io.load file with
              | Ok rules -> check_int "checkpoint table" 2 (Array.length rules)
              | Error e -> Alcotest.failf "checkpoint table: %s" e)
          | None -> Alcotest.fail "expected a checkpoint");
          check "compaction cleared committed drains" true
            (r.Journal.committed = []);
          check "only the suffix mod survives" true
            (List.map fst r.Journal.mods = [ s4 ]))

let test_meta_roundtrip () =
  let dir = Journal.fresh_dir ~prefix:"fr-test-meta" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let m =
        {
          Journal.shards = 4;
          capacity = 2_000;
          policy = "prefix:8";
          kind = "fr-sd";
          verify = true;
        }
      in
      Journal.write_meta ~dir m;
      match Journal.read_meta ~dir with
      | Ok m' -> check "meta round-trips" true (m = m')
      | Error e -> Alcotest.failf "read_meta: %s" e)

(* --- backoff ----------------------------------------------------------- *)

let test_backoff () =
  (* The fixed schedule: 1, 2, 4, ... ms capped at 64, each within +-20%. *)
  let b = Backoff.create ~seed:3 () in
  let delays = List.init 10 (fun i -> Backoff.delay_ms b ~attempt:(i + 1)) in
  List.iteri
    (fun i d ->
      let ideal = Float.min 64.0 (2.0 ** float_of_int i) in
      check
        (Printf.sprintf "attempt %d within jitter band" (i + 1))
        true
        (d >= ideal *. 0.8 -. 1e-9 && d <= ideal *. 1.2 +. 1e-9))
    delays;
  check "jittered, not nominal" true
    (List.exists2 (fun d i -> d <> Float.min 64.0 (2.0 ** float_of_int i))
       delays (List.init 10 Fun.id));
  let again = Backoff.create ~seed:3 () in
  check "equal seeds, equal schedules" true
    (List.for_all2 (fun d i -> Backoff.delay_ms again ~attempt:i = d)
       delays (List.init 10 (fun i -> i + 1)));
  check "attempts are 1-based" true
    (try
       ignore (Backoff.delay_ms b ~attempt:0);
       false
     with Invalid_argument _ -> true)

(* --- breaker ----------------------------------------------------------- *)

let test_breaker_state_machine () =
  let b = Breaker.create ~threshold:2 ~cooldown:2 () in
  check "starts closed" true (Breaker.state b = Breaker.Closed);
  Breaker.note_failure b;
  check "one failure stays closed" true (Breaker.state b = Breaker.Closed);
  Breaker.note_success b;
  Breaker.note_failure b;
  check "success resets the streak" true (Breaker.state b = Breaker.Closed);
  Breaker.note_failure b;
  check "threshold trips" true (Breaker.state b = Breaker.Open);
  check "open does not admit" false (Breaker.admits b);
  Breaker.note_skipped b;
  check "cooldown not elapsed" true (Breaker.state b = Breaker.Open);
  Breaker.note_skipped b;
  check "cooldown elapsed: half-open" true (Breaker.state b = Breaker.Half_open);
  check "half-open admits a probe" true (Breaker.admits b);
  Breaker.note_failure b;
  check "failed probe reopens" true (Breaker.state b = Breaker.Open);
  check_int "opens counted" 2 (Breaker.opens b);
  Breaker.note_skipped b;
  Breaker.note_skipped b;
  Breaker.note_success b;
  check "successful probe closes" true (Breaker.state b = Breaker.Closed)

(* --- supervisor: retry ------------------------------------------------- *)

let test_retry_recovers_transient_fault () =
  let svc = Ctrl.create ~shards:1 ~capacity:100 () in
  (* One injected failure, then a healthy plan: the first drain loses an
     op, the in-flush retry re-drives it, the flush reports no
     casualties. *)
  Ctrl.set_fault svc ~shard:0
    (Some (Fault.create ~fail_prob:1.0 ~max_failures:1 ~seed:3 ()));
  Ctrl.submit svc (Agent.Add (mk_rule 1));
  Ctrl.submit svc (Agent.Add (mk_rule 2));
  let report = Ctrl.flush svc in
  check "no residual failures" true (Ctrl.failures report = []);
  check_int "both ops applied" 2 (Ctrl.applied report);
  let tele = Shard.telemetry (Ctrl.shard svc 0) in
  check "retry happened" true (Telemetry.retries tele >= 1);
  check "backoff accounted" true (Telemetry.backoff_ms_total tele > 0.0);
  check "breaker stays closed" true (Ctrl.breaker_state svc 0 = Breaker.Closed);
  check_int "rules installed" 2 (Ctrl.rule_count svc)

(* --- supervisor: breaker quarantine ------------------------------------ *)

let test_breaker_quarantines_faulted_shard () =
  let resil =
    {
      Ctrl.default_resil with
      Ctrl.retry_budget = 0;
      breaker_threshold = 2;
      breaker_cooldown = 2;
      queue_bound = 2;
    }
  in
  let svc = Ctrl.create ~resil ~shards:2 ~capacity:300 () in
  let part = Ctrl.partition svc in
  (* Enough distinct rules routed to each shard to feed the whole
     scenario. *)
  let routed s =
    let acc = ref [] in
    let id = ref 1 in
    while List.length !acc < 12 do
      let r = mk_rule !id in
      if Partition.route_rule part r = s then acc := r :: !acc;
      incr id
    done;
    Array.of_list (List.rev !acc)
  in
  let to0 = routed 0 and to1 = routed 1 in
  let i0 = ref 0 and i1 = ref 0 in
  let feed s =
    if s = 0 then begin
      Ctrl.submit svc (Agent.Add to0.(!i0));
      incr i0
    end
    else begin
      Ctrl.submit svc (Agent.Add to1.(!i1));
      incr i1
    end
  in
  Ctrl.set_fault svc ~shard:0 (Some (Fault.create ~fail_prob:1.0 ~seed:5 ()));
  (* Two damaged drains trip the breaker; the sibling applies both of
     its ops regardless. *)
  feed 0; feed 1;
  ignore (Ctrl.flush svc);
  check "still closed at 1 failure" true (Ctrl.breaker_state svc 0 = Breaker.Closed);
  feed 0; feed 1;
  let r2 = Ctrl.flush svc in
  check "tripped at threshold" true (Ctrl.breaker_state svc 0 = Breaker.Open);
  check "trip is visible in the flush report" true (r2.Ctrl.quarantined = []);
  check_int "sibling unharmed" 2 (Ctrl.rule_count svc);
  (* Quarantined: submits queue up to the bound, then shed. *)
  let q1 = Ctrl.try_submit svc (Agent.Add to0.(!i0)) in
  incr i0;
  let q2 = Ctrl.try_submit svc (Agent.Add to0.(!i0)) in
  incr i0;
  let q3 = Ctrl.try_submit svc (Agent.Add to0.(!i0)) in
  incr i0;
  check "bounded queue accepts" true (q1 = Ctrl.Accepted && q2 = Ctrl.Accepted);
  (match q3 with
  | Ctrl.Overloaded _ -> ()
  | Ctrl.Accepted -> Alcotest.fail "overfull quarantine queue must shed");
  (* The next flushes skip shard 0 (cooldown), keep serving shard 1, and
     report the shed op as a casualty. *)
  feed 1;
  let r3 = Ctrl.flush svc in
  check "skipped while open" true (r3.Ctrl.quarantined = [ 0 ]);
  check_int "shed reported" 1 (List.length (Ctrl.failures r3));
  feed 1;
  let r4 = Ctrl.flush svc in
  check "still skipped" true (r4.Ctrl.quarantined = [ 0 ]);
  check "cooldown elapsed" true (Ctrl.breaker_state svc 0 = Breaker.Half_open);
  check_int "siblings kept applying" 4
    (Telemetry.applied (Shard.telemetry (Ctrl.shard svc 1)));
  (* Heal the shard: the half-open probe drains the backlog and closes
     the breaker. *)
  Ctrl.set_fault svc ~shard:0 None;
  let r5 = Ctrl.flush svc in
  check "probe admitted" true (r5.Ctrl.quarantined = []);
  check "probe closed the breaker" true
    (Ctrl.breaker_state svc 0 = Breaker.Closed);
  check "backlog applied" true
    (Agent.rule_count (Shard.agent (Ctrl.shard svc 0)) >= 2);
  let tele0 = Shard.telemetry (Ctrl.shard svc 0) in
  check_int "one trip recorded" 1 (Telemetry.breaker_opens tele0);
  check_int "one shed recorded" 1 (Telemetry.shed tele0);
  check_str "state string surfaced" "closed" (Telemetry.breaker_state tele0)

(* --- crash/recovery ---------------------------------------------------- *)

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

(* The headline property: crash anywhere (between flushes or mid-drain),
   recover from the journal directory alone, and the installed state
   equals the committed prefix; one more flush replays the requeued
   suffix and lands on the same state as a service that never crashed. *)
let prop_crash_recovery =
  QCheck.Test.make ~count:12 ~name:"crash -> recover == committed prefix"
    QCheck.(triple (int_bound 1_000) (int_bound 80) (int_bound 100))
    (fun (seed, extra_ops, knobs) ->
      let batch = 4 + (knobs mod 12) in
      let stop = 1 + (knobs mod 3) in
      let mid_drain = knobs mod 2 = 0 in
      let spec =
        {
          Churn.kind = Dataset.ACL4;
          initial = 30;
          ops = 20 + extra_ops;
          shards = 2;
          capacity = 400;
          batch;
          seed;
        }
      in
      let dir = Journal.fresh_dir ~prefix:"fr-test-crash" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let crashed =
            Churn.run ~journal:dir ~stop_after_flushes:stop spec
          in
          let committed_image = service_image crashed.Churn.service in
          Ctrl.simulate_crash ~mid_drain crashed.Churn.service;
          match Ctrl.recover ~journal:dir () with
          | Error e -> QCheck.Test.fail_reportf "recover: %s" e
          | Ok rc ->
              let recovered = rc.Ctrl.service in
              let prefix_ok =
                service_image recovered = committed_image
                && rc.Ctrl.warnings = []
                && consistent recovered
              in
              (* Replay the suffix and compare against an uncrashed twin
                 driven over the same stream. *)
              if Ctrl.pending recovered > 0 then ignore (Ctrl.flush recovered);
              let twin = Churn.run ~stop_after_flushes:stop spec in
              if Ctrl.pending twin.Churn.service > 0 then
                ignore (Ctrl.flush twin.Churn.service);
              prefix_ok
              && service_image recovered = service_image twin.Churn.service))

(* Torn-tail robustness at the byte level: truncate the WAL anywhere
   after the baseline checkpoint and recovery must still land on the
   image of one of the flush states that actually committed. *)
let prop_truncated_journal =
  QCheck.Test.make ~count:12 ~name:"truncated journal recovers a committed image"
    QCheck.(pair (int_bound 1_000) (int_bound 10_000))
    (fun (seed, cut) ->
      let spec =
        {
          Churn.kind = Dataset.ACL4;
          initial = 20;
          ops = 60;
          shards = 1;
          capacity = 300;
          batch = 8;
          seed;
        }
      in
      let dir = Journal.fresh_dir ~prefix:"fr-test-torn" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          (* Drive the stream by hand so every post-flush image is
             recorded. *)
          let pool = Dataset.generate Dataset.ACL4 ~seed ~n:80 in
          let svc =
            Ctrl.of_rules ~journal:dir ~shards:1 ~capacity:300
              (Array.sub pool 0 20)
          in
          let images = ref [ service_image svc ] in
          for i = 20 to 79 do
            Ctrl.submit svc (Agent.Add pool.(i));
            if (i - 19) mod spec.Churn.batch = 0 then begin
              ignore (Ctrl.flush svc);
              images := service_image svc :: !images
            end
          done;
          Ctrl.simulate_crash svc;
          (* Truncate anywhere after the header + baseline checkpoint
             line (everything before that is written atomically, not
             appended). *)
          let path = Journal.dir_file ~dir ~shard:0 in
          let text =
            let ic = open_in_bin path in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            s
          in
          let nl = ref 0 and floor = ref 0 in
          String.iteri
            (fun i c ->
              if c = '\n' && !nl < 3 then begin
                incr nl;
                floor := i + 1
              end)
            text;
          let len = String.length text in
          let point = !floor + (cut mod (len - !floor + 1)) in
          let oc = open_out_bin path in
          output_string oc (String.sub text 0 point);
          close_out oc;
          match Ctrl.recover ~journal:dir () with
          | Error e -> QCheck.Test.fail_reportf "recover after truncation: %s" e
          | Ok rc ->
              consistent rc.Ctrl.service
              && List.mem (service_image rc.Ctrl.service) !images))

(* A journal directory refuses double initialisation: accidental reuse
   would silently erase history. *)
let test_journal_dir_refuses_reuse () =
  let dir = Journal.fresh_dir ~prefix:"fr-test-reuse" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let svc = Ctrl.create ~journal:dir ~shards:1 ~capacity:50 () in
      check "journaled" true (Ctrl.journaled svc);
      check "reuse refused" true
        (try
           ignore (Ctrl.create ~journal:dir ~shards:1 ~capacity:50 ());
           false
         with Invalid_argument _ -> true))

(* The CLI asks before building anything: a used directory is an error
   value carrying the same message the constructors raise. *)
let test_journal_unused () =
  let dir = Journal.fresh_dir ~prefix:"fr-test-unused" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      check "fresh dir is unused" true (Ctrl.journal_unused ~dir = Ok ());
      ignore (Ctrl.create ~journal:dir ~shards:1 ~capacity:50 ());
      match Ctrl.journal_unused ~dir with
      | Ok () -> Alcotest.fail "a used dir must be reported"
      | Error e ->
          check "message names the dir" true
            (String.starts_with ~prefix:"Service: journal directory" e))

let write_text path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* A malformed shape is a read error, never an exception out of the
   service constructors. *)
let test_meta_rejects_bad_shape () =
  let dir = Journal.fresh_dir ~prefix:"fr-test-badmeta" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let meta ~shards ~capacity =
        Printf.sprintf
          "fastrule-resil-meta v1\nshards %s\ncapacity %s\npolicy \
           hash\nkind fr-o\nverify false\n"
          shards capacity
      in
      List.iter
        (fun (shards, capacity, want) ->
          write_text (Journal.meta_file ~dir) (meta ~shards ~capacity);
          (match Journal.read_meta ~dir with
          | Ok _ -> Alcotest.failf "read_meta accepted %s" want
          | Error e -> check_str "read_meta error" want e);
          match Ctrl.recover ~journal:dir () with
          | Ok _ -> Alcotest.failf "recover accepted %s" want
          | Error e -> check_str "recover error" want e)
        [
          ("0", "100", "journal meta: bad shards 0");
          ("-3", "100", "journal meta: bad shards -3");
          ("2", "0", "journal meta: bad capacity 0");
          ("two", "100", "journal meta: bad shards \"two\"");
        ])

(* Metas written while the deferred-refresh knob existed carry a
   [refresh_every] line; recovery ignores it whatever its value. *)
let test_legacy_meta_recovers () =
  let dir = Journal.fresh_dir ~prefix:"fr-test-legacy" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let pool = Dataset.generate Dataset.ACL4 ~seed:5 ~n:60 in
      let svc =
        Ctrl.of_rules ~journal:dir ~shards:2 ~capacity:200
          (Array.sub pool 0 30)
      in
      for i = 30 to 59 do
        Ctrl.submit svc (Agent.Add pool.(i));
        if i mod 10 = 9 then ignore (Ctrl.flush svc)
      done;
      let committed = service_image svc in
      Ctrl.simulate_crash svc;
      write_text (Journal.meta_file ~dir)
        "fastrule-resil-meta v1\nshards 2\ncapacity 200\npolicy hash\nkind \
         fr-o\nrefresh_every 16\nverify false\n";
      match Ctrl.recover ~journal:dir () with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok rc ->
          check "no warnings" true (rc.Ctrl.warnings = []);
          check "rebuilt the committed image" true
            (service_image rc.Ctrl.service = committed);
          check "consistent" true (consistent rc.Ctrl.service))

(* --- the crash lane of the service oracle -------------------------------- *)

(* Crash-at-op-k differential run, the CI drill's trace: a crash between
   flushes and one mid-drain both recover to the committed prefix for all
   five schedulers, identically under 1 and 4 drain domains. *)
let test_crash_oracle () =
  let trace =
    Trace.generate ~kind:Dataset.ACL4 ~seed:42 ~initial:40 ~pool:80
      ~capacity:160 ~events:120 ()
  in
  let lanes ~mid_drain domains =
    let r =
      Oracle.run_service ~domains (Oracle.Crash { at = 78; mid_drain }) trace
    in
    if not (Oracle.service_clean r) then
      Alcotest.failf "crash oracle diverged (domains %d):@.%a" domains
        Oracle.pp_service_report r;
    check_int "five lanes" 5 (List.length r.Oracle.lanes);
    List.iter
      (fun c ->
        check_int
          (c.Oracle.sched ^ ": committed + suffix = at")
          78
          (c.Oracle.committed + c.Oracle.suffix))
      r.Oracle.lanes;
    r.Oracle.lanes
  in
  List.iter
    (fun mid_drain ->
      let l1 = lanes ~mid_drain 1 in
      check "columns agree across domain counts" true (l1 = lanes ~mid_drain 4))
    [ false; true ];
  (* the mid-drain crash leaves real work at stake *)
  List.iter
    (fun c ->
      check (c.Oracle.sched ^ ": uncommitted suffix") true
        (c.Oracle.suffix > 0);
      check (c.Oracle.sched ^ ": suffix requeued") true (c.Oracle.requeued > 0))
    (lanes ~mid_drain:true 1);
  check "batch must be positive" true
    (match
       Oracle.run_service ~batch:0 (Oracle.Crash { at = 78; mid_drain = false })
         trace
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* A meta whose shard count disagrees with the WALs on disk is refused
   by one directory listing — a count of 100 million used to make
   [journal stat] and recovery walk (or build) that many shards. *)
let test_meta_shards_checked_against_wals () =
  let dir = Journal.fresh_dir ~prefix:"fr-test-metawal" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let svc =
        Ctrl.of_rules ~journal:dir ~shards:2 ~capacity:64
          (Array.init 6 (fun i -> mk_rule (i + 1)))
      in
      Ctrl.simulate_crash svc;
      let meta shards =
        Printf.sprintf
          "fastrule-resil-meta v1\nshards %d\ncapacity 64\npolicy hash\nkind \
           fr-o\nverify false\n"
          shards
      in
      List.iter
        (fun shards ->
          write_text (Journal.meta_file ~dir) (meta shards);
          let (), ms =
            Measure.time_ms (fun () ->
          (match Journal.read_meta ~dir with
          | Error e -> Alcotest.failf "read_meta: %s" e
          | Ok m ->
              check
                (Printf.sprintf "check_shards refuses shards %d" shards)
                true
                (Result.is_error (Journal.check_shards ~dir m)));
          (match Ctrl.recover ~journal:dir () with
          | Ok _ -> Alcotest.failf "recover accepted shards %d over 2 WALs" shards
          | Error e ->
              check_str "recover names the mismatch"
                (Printf.sprintf
                   "journal meta: shards %d disagrees with the 2 shard WAL(s) \
                    in %s (want shard-0.wal .. shard-%d.wal)"
                   shards dir (shards - 1))
                e))
          in
          check
            (Printf.sprintf "shards %d refused promptly" shards)
            true (ms < 5_000.0))
        [ 100_000_000; 3; 1 ];
      write_text (Journal.meta_file ~dir) (meta 2);
      check "the true count still recovers" true
        (Result.is_ok (Ctrl.recover ~journal:dir ())))

(* --- route upkeep ---------------------------------------------------------- *)

(* The route law: outside a flush — so after every submit, flush, shard
   restart and recovery — the route table and the failover overlay equal
   what a full scan of the shards builds ([Ctrl.routes_consistent]).  One
   plan mixes fresh, duplicate and unknown-id submits with flushes, a
   slow shard that quarantines and heals (failover diverts, rebalance
   drains home, a queue bound of 1 sheds), an optional 10% stuck-row
   bank on another shard, shard restarts and crash-then-recover.
   Returns what the plan exercised. *)
type route_tally = {
  mutable checks : int;
  mutable shed : int;
  mutable diverted : int;
  mutable rebalanced : int;
  mutable dead_max : int;
  mutable restarts : int;
  mutable recoveries : int;
}

let route_law_plan ~seed ~shards ~dead ~steps =
  let capacity = 50 in
  let preload = 12 * shards in
  let pool = Dataset.generate Dataset.ACL4 ~seed ~n:(preload + steps) in
  let resil =
    {
      Ctrl.default_resil with
      Ctrl.failover = true;
      slow_drain_ms = 2.0;
      breaker_slow_threshold = 2;
      breaker_cooldown = 4;
      queue_bound = 1;
      retry_budget = 4;
    }
  in
  let tally =
    {
      checks = 0;
      shed = 0;
      diverted = 0;
      rebalanced = 0;
      dead_max = 0;
      restarts = 0;
      recoveries = 0;
    }
  in
  let count svc =
    for s = 0 to Ctrl.shards svc - 1 do
      let t = Shard.telemetry (Ctrl.shard svc s) in
      tally.shed <- tally.shed + Telemetry.shed t;
      tally.diverted <- tally.diverted + Telemetry.diverted t;
      tally.rebalanced <- tally.rebalanced + Telemetry.rebalanced t
    done
  in
  let dir = Journal.fresh_dir ~prefix:"fr-test-routes" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let rng = Rng.create ~seed in
      let svc =
        ref
          (Ctrl.of_rules ~resil ~journal:dir ~shards ~capacity
             (Array.sub pool 0 preload))
      in
      let dead_shard = Rng.int rng shards in
      let stuck =
        List.init (capacity / 10) (fun k -> (10 * k) + Rng.int rng 10)
      in
      let arm () =
        if dead then
          Ctrl.set_fault !svc ~shard:dead_shard
            (Some (Fault.create ~stuck ~seed ()))
      in
      arm ();
      let law what =
        tally.checks <- tally.checks + 1;
        tally.dead_max <- max tally.dead_max (Ctrl.dead_rows !svc);
        match Ctrl.routes_consistent !svc with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "seed %d shards %d dead %b: after %s: %s" seed
              shards dead what e
      in
      let slow = ref None in
      let next = ref preload in
      let live () = Rng.int rng !next in
      let submit fm =
        Ctrl.submit !svc fm;
        "a submit"
      in
      for _ = 1 to steps do
        law
          (match Rng.int rng 100 with
          | r when r < 40 && !next < Array.length pool ->
              incr next;
              submit (Agent.Add pool.(!next - 1))
          | r when r < 48 ->
              (* a duplicate Add of some earlier rule, wherever it lives *)
              submit (Agent.Add pool.(live ()))
          | r when r < 62 -> submit (Agent.Remove { id = live () })
          | r when r < 65 ->
              submit (Agent.Remove { id = 1_000_000 + Rng.int rng 50 })
          | r when r < 72 ->
              submit
                (Agent.Set_action
                   { id = live (); action = Rule.Forward (Rng.int rng 8) })
          | r when r < 86 ->
              ignore (Ctrl.flush !svc);
              "a flush"
          | r when r < 91 ->
              (match !slow with
              | Some s ->
                  Ctrl.set_fault !svc ~shard:s None;
                  slow := None
              | None ->
                  let s = Rng.int rng shards in
                  if not (dead && s = dead_shard) then begin
                    Ctrl.set_fault !svc ~shard:s
                      (Some (Fault.create ~slow_ms:8.0 ~seed ()));
                    slow := Some s
                  end);
              "a fault change"
          | r when r < 96 ->
              let s = Rng.int rng shards in
              (match Ctrl.restart_shard !svc ~shard:s with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.failf "seed %d: restart_shard %d: %s" seed s e);
              tally.restarts <- tally.restarts + 1;
              "restart_shard"
          | r when r < 98 -> (
              Ctrl.simulate_crash ~mid_drain:(Rng.bool rng) !svc;
              count !svc;
              match Ctrl.recover ~resil ~journal:dir () with
              | Error e -> Alcotest.failf "seed %d: recover: %s" seed e
              | Ok rc ->
                  svc := rc.Ctrl.service;
                  tally.recoveries <- tally.recoveries + 1;
                  (* fault plans lived in the lost agents *)
                  slow := None;
                  arm ();
                  "recover")
          | _ -> "nothing")
      done;
      Option.iter (fun s -> Ctrl.set_fault !svc ~shard:s None) !slow;
      let settle = ref 0 in
      while
        (Ctrl.pending !svc > 0 || Ctrl.diverted_count !svc > 0) && !settle < 40
      do
        ignore (Ctrl.flush !svc);
        law "a settling flush";
        incr settle
      done;
      count !svc;
      tally)

let prop_route_law =
  QCheck.Test.make ~count:30 ~name:"route law holds over random chaos plans"
    QCheck.(
      make
        ~print:(fun (seed, shards, dead, steps) ->
          Printf.sprintf "seed=%d shards=%d dead=%b steps=%d" seed shards dead
            steps)
        Gen.(
          quad (int_bound 10_000) (int_range 2 4) bool (int_range 60 240)))
    (fun (seed, shards, dead, steps) ->
      (route_law_plan ~seed ~shards ~dead ~steps).checks > 0)

(* Fixed plans, so the property's ingredients are known to occur: every
   fault the route law is meant to survive happens at least once. *)
let test_route_law_coverage () =
  let total =
    List.map
      (fun seed ->
        route_law_plan ~seed ~shards:3 ~dead:(seed mod 2 = 0) ~steps:300)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 total in
  List.iter
    (fun (what, n) -> check (what ^ " exercised") true (n > 0))
    [
      ("shedding", sum (fun t -> t.shed));
      ("failover diversion", sum (fun t -> t.diverted));
      ("rebalance home", sum (fun t -> t.rebalanced));
      ("dead rows", sum (fun t -> t.dead_max));
      ("restart_shard", sum (fun t -> t.restarts));
      ("crash + recover", sum (fun t -> t.recoveries));
    ]

(* Two pinned plans.  Seed 8538: a rebalance's Add on a home shard with
   dead rows failed for want of room and was committed; replay after a
   crash ran it on hardware without the dead rows, where it landed, and
   left rule 101 on both shards.  Seed 8077 restarts a shard whose
   checkpoint holds a rule on a row found dead later, so the table does
   not fit around the known dead rows. *)
let test_route_law_pinned () =
  List.iter
    (fun (seed, steps) ->
      let t = route_law_plan ~seed ~shards:2 ~dead:true ~steps in
      check (Printf.sprintf "seed %d recovered" seed) true (t.recoveries > 0);
      check (Printf.sprintf "seed %d restarted" seed) true (t.restarts > 0))
    [ (8538, 239); (8077, 204) ]

let suite =
  [
    ( "resil",
      [
        Alcotest.test_case "journal entry codec" `Quick test_journal_entry_codec;
        Alcotest.test_case "journal write/read + torn tail" `Quick
          test_journal_write_read;
        Alcotest.test_case "checkpoint compacts" `Quick
          test_journal_checkpoint_compacts;
        Alcotest.test_case "meta round-trip" `Quick test_meta_roundtrip;
        Alcotest.test_case "backoff" `Quick test_backoff;
        Alcotest.test_case "breaker state machine" `Quick
          test_breaker_state_machine;
        Alcotest.test_case "retry recovers transient fault" `Quick
          test_retry_recovers_transient_fault;
        Alcotest.test_case "breaker quarantines faulted shard" `Quick
          test_breaker_quarantines_faulted_shard;
        Alcotest.test_case "journal dir refuses reuse" `Quick
          test_journal_dir_refuses_reuse;
        QCheck_alcotest.to_alcotest prop_crash_recovery;
        QCheck_alcotest.to_alcotest prop_truncated_journal;
        Alcotest.test_case "crash oracle clean, domains 1 = 4" `Quick
          test_crash_oracle;
        Alcotest.test_case "journal_unused reports a used dir" `Quick
          test_journal_unused;
        Alcotest.test_case "meta rejects a bad shape" `Quick
          test_meta_rejects_bad_shape;
        Alcotest.test_case "legacy refresh_every meta recovers" `Quick
          test_legacy_meta_recovers;
        Alcotest.test_case "meta shards checked against the WALs" `Quick
          test_meta_shards_checked_against_wals;
        QCheck_alcotest.to_alcotest prop_route_law;
        Alcotest.test_case "route law plans cover every fault" `Quick
          test_route_law_coverage;
        Alcotest.test_case "route law pinned plans" `Quick test_route_law_pinned;
      ] );
  ]
