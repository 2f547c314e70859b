(* Fleet-level tests: topologies, the version-tagged policy encoding, the
   two-phase planner, the brute-force transient checker, rollout
   execution (incl. the parallel node fan-out), crash recovery, and the
   network conformance oracle. *)

open Fastrule

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rec rm_rf dir =
  match Sys.is_directory dir with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat dir f)) (Sys.readdir dir);
      (try Sys.rmdir dir with Sys_error _ -> ())
  | false -> ( try Sys.remove dir with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* Flat [(relative path, contents)] view of a directory tree, sorted —
   byte-level journal comparison across fleets. *)
let read_tree root =
  let acc = ref [] in
  let rec walk rel abs =
    if Sys.is_directory abs then
      Array.iter
        (fun f ->
          walk (if rel = "" then f else Filename.concat rel f)
            (Filename.concat abs f))
        (Sys.readdir abs)
    else begin
      let ic = open_in_bin abs in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      acc := (rel, body) :: !acc
    end
  in
  walk "" root;
  List.sort compare !acc

(* --- topology ---------------------------------------------------------- *)

let test_topo_shapes () =
  let line = Net_topo.make Line 4 in
  Alcotest.(check (list (pair int int)))
    "line links"
    [ (0, 1); (1, 2); (2, 3) ]
    (Net_topo.links line);
  let ring = Net_topo.make Ring 4 in
  Alcotest.(check (list (pair int int)))
    "ring links"
    [ (0, 1); (0, 3); (1, 2); (2, 3) ]
    (Net_topo.links ring);
  let tree = Net_topo.make Tree 7 in
  Alcotest.(check (list int)) "root children" [ 1; 2 ] (Net_topo.neighbors tree 0);
  Alcotest.(check (list int)) "node 1 adj" [ 0; 3; 4 ] (Net_topo.neighbors tree 1);
  check_int "tree links" 6 (List.length (Net_topo.links tree))

let test_topo_ports () =
  let line = Net_topo.make Line 3 in
  Alcotest.(check (option int)) "0->1" (Some 1) (Net_topo.port_to line ~src:0 ~dst:1);
  Alcotest.(check (option int)) "1->0" (Some 1) (Net_topo.port_to line ~src:1 ~dst:0);
  Alcotest.(check (option int)) "1->2" (Some 2) (Net_topo.port_to line ~src:1 ~dst:2);
  Alcotest.(check (option int)) "0->2 unlinked" None (Net_topo.port_to line ~src:0 ~dst:2);
  Alcotest.(check (option int))
    "next_hop inverts port_to" (Some 2)
    (Net_topo.next_hop line ~node:1 ~port:2);
  Alcotest.(check (option int))
    "host port exits" None
    (Net_topo.next_hop line ~node:1 ~port:Net_topo.host_port)

let test_simple_paths () =
  let ring = Net_topo.make Ring 4 in
  check_int "ring has two simple paths" 2
    (List.length (Net_topo.simple_paths ring ~src:0 ~dst:2));
  let line = Net_topo.make Line 5 in
  Alcotest.(check (list (list int)))
    "line path unique"
    [ [ 0; 1; 2; 3; 4 ] ]
    (Net_topo.simple_paths line ~src:0 ~dst:4);
  check_int "limit caps enumeration" 1
    (List.length (Net_topo.simple_paths ~limit:1 ring ~src:0 ~dst:2))

(* --- policy ------------------------------------------------------------ *)

let flow ?(plen = 16) ?waypoint ~id ~dst path =
  {
    Net_policy.flow_id = id;
    dst_value = Int64.of_int dst;
    plen;
    path;
    waypoint;
  }

let test_hop_rules () =
  let line = Net_topo.make Line 4 in
  let f = flow ~id:3 ~dst:(1 lsl 16) [ 0; 1; 2; 3 ] in
  let hops = Net_policy.hop_rules line f ~version:1 in
  check_int "one rule per hop" 4 (List.length hops);
  List.iter
    (fun (node, (r : Rule.t)) ->
      check_int "rule id tags flow and version" 7 r.id;
      check_int "priority is plen" 16 r.priority;
      match r.action with
      | Rule.Forward p when node = 3 ->
          check_int "egress delivers" Net_topo.host_port p
      | Rule.Forward p ->
          Alcotest.(check (option int))
            "interior forwards down the path" (Some (node + 1))
            (Net_topo.next_hop line ~node ~port:p)
      | _ -> Alcotest.fail "expected Forward")
    hops;
  (* version tag: a v1-stamped packet matches only the v1 rule *)
  let rng = Rng.create ~seed:5 in
  let pkt = Option.get (Net_policy.packet_for rng ~all:[ f ] f) in
  let r1 = snd (List.hd hops) in
  let r0 = snd (List.hd (Net_policy.hop_rules line f ~version:0)) in
  check_bool "v1 rule matches v1 stamp" true
    (Rule.matches_packet r1 (Net_policy.stamp_packet pkt ~version:1));
  check_bool "v0 rule rejects v1 stamp" false
    (Rule.matches_packet r0 (Net_policy.stamp_packet pkt ~version:1))

let test_pure_region_and_winner () =
  let parent = flow ~id:0 ~dst:(1 lsl 16) [ 0; 1 ] in
  let child =
    flow ~id:1 ~plen:24 ~dst:((1 lsl 16) lor (1 lsl 8)) [ 0; 1 ]
  in
  let all = [ parent; child ] in
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 50 do
    let pkt = Option.get (Net_policy.packet_for rng ~all parent) in
    (match Net_policy.winner all pkt with
    | Some w -> check_int "parent wins its pure region" 0 w.Net_policy.flow_id
    | None -> Alcotest.fail "no winner");
    let pkt_c = Option.get (Net_policy.packet_for rng ~all child) in
    match Net_policy.winner all pkt_c with
    | Some w -> check_int "child wins its own prefix" 1 w.Net_policy.flow_id
    | None -> Alcotest.fail "no winner"
  done

let test_policy_check_rejects () =
  let line = Net_topo.make Line 4 in
  let bad_hop = [ flow ~id:0 ~dst:(1 lsl 16) [ 0; 2 ] ] in
  check_bool "unlinked hop rejected" true
    (Result.is_error (Net_policy.check line bad_hop));
  let bad_wp = [ flow ~id:0 ~dst:(1 lsl 16) ~waypoint:3 [ 0; 1 ] ] in
  check_bool "waypoint off path rejected" true
    (Result.is_error (Net_policy.check line bad_wp));
  let dup =
    [ flow ~id:0 ~dst:(1 lsl 16) [ 0; 1 ]; flow ~id:1 ~dst:(1 lsl 16) [ 2; 3 ] ]
  in
  check_bool "duplicate prefix rejected" true
    (Result.is_error (Net_policy.check line dup));
  check_bool "good policy accepted" true
    (Result.is_ok
       (Net_policy.check line [ flow ~id:0 ~dst:(1 lsl 16) [ 0; 1 ] ]))

(* --- planner ----------------------------------------------------------- *)

let scenario_plan ?(batch = 3) ~seed shape n =
  let topo = Net_topo.make shape n in
  let sc = Net_scenario.make ~seed topo in
  match Net_scenario.plan ~batch sc with
  | Ok p -> (sc, p)
  | Error e -> Alcotest.failf "plan: %s" e

let test_plan_phases () =
  let _, plan = scenario_plan ~seed:42 Ring 5 in
  let phases =
    List.map (fun (r : Net_plan.round) -> r.kind) (Net_plan.rounds plan)
  in
  let rec ordered = function
    | Net_plan.Install :: rest -> ordered rest
    | Net_plan.Flip :: rest ->
        List.for_all (fun k -> k = Net_plan.Uninstall) rest
    | Net_plan.Uninstall :: _ -> false
    | [] -> true
  in
  check_bool "install* flip uninstall* order" true (ordered phases);
  check_int "exactly one flip round" 1
    (List.length (List.filter (fun k -> k = Net_plan.Flip) phases))

let test_plan_batch_bound () =
  List.iter
    (fun batch ->
      let _, plan = scenario_plan ~batch ~seed:7 Tree 7 in
      List.iter
        (fun (r : Net_plan.round) ->
          List.iter
            (fun (_, mods) ->
              check_bool "per-switch batch bound" true
                (List.length mods <= batch))
            r.batches)
        (Net_plan.rounds plan))
    [ 1; 2; 8 ];
  (* total mods are batch-invariant *)
  let _, p1 = scenario_plan ~batch:1 ~seed:7 Tree 7 in
  let _, p8 = scenario_plan ~batch:8 ~seed:7 Tree 7 in
  check_int "mods independent of batch" (Net_plan.total_mods p8)
    (Net_plan.total_mods p1);
  check_bool "smaller batch, at least as many rounds" true
    (Net_plan.num_rounds p1 >= Net_plan.num_rounds p8)

let test_plan_stamps () =
  let sc, plan = scenario_plan ~seed:42 Ring 5 in
  let before = Net_plan.stamps_before plan in
  let after = Net_plan.stamps_after plan in
  List.iter
    (fun (f : Net_policy.flow) ->
      check_bool "every new flow stamped after" true
        (List.mem_assoc f.flow_id after))
    sc.new_policy;
  List.iter
    (fun (fid, v) ->
      match List.assoc_opt fid before with
      | None -> check_int "introduced flows start at v0" 0 v
      | Some _ -> ())
    after

(* --- brute-force checker ---------------------------------------------- *)

let test_check_plan_fixtures () =
  List.iter
    (fun (shape, n, seed) ->
      let _, plan = scenario_plan ~seed shape n in
      match Net_check.check_plan plan with
      | Ok () -> ()
      | Error vs ->
          Alcotest.failf "%s/%d seed %d: %s" (Net_topo.shape_to_string shape) n
            seed (String.concat "; " vs))
    [ (Net_topo.Line, 6, 1); (Net_topo.Ring, 5, 2); (Net_topo.Tree, 7, 3) ]

(* The checker is not a rubber stamp: claiming the post-flip stamp while
   only the old version is installed must surface violations. *)
let test_check_catches_premature_flip () =
  let sc, plan = scenario_plan ~seed:42 Ring 5 in
  let changed =
    List.filter
      (fun (fid, v) -> List.assoc_opt fid (Net_plan.stamps_before plan) <> Some v)
      (Net_plan.stamps_after plan)
  in
  check_bool "scenario changes something" true (changed <> []);
  let model =
    Net_check.Model.of_policy sc.topo
      ~version_of:(fun f ->
        List.assoc f.Net_policy.flow_id (Net_plan.stamps_before plan))
      sc.old_policy
  in
  let stamps fid =
    match List.assoc_opt fid (Net_plan.stamps_after plan) with
    | Some v -> Some v
    | None -> List.assoc_opt fid (Net_plan.stamps_before plan)
  in
  let rng = Rng.create ~seed:3 in
  let violations =
    Net_check.consistent ~rng plan ~stamps
      ~lookup:(Net_check.Model.lookup model) ~where:"premature flip"
  in
  check_bool "premature flip caught" true (violations <> [])

(* A path that detours around the configured waypoint is caught even
   when delivery still succeeds. *)
let test_check_catches_waypoint_bypass () =
  let ring = Net_topo.make Ring 4 in
  let f =
    flow ~id:0 ~dst:(1 lsl 16) ~waypoint:1 [ 0; 1; 2 ]
  in
  let plan =
    match
      Net_plan.make ring ~stamps:[ (0, 0) ] ~old_policy:[ f ] ~new_policy:[ f ]
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan: %s" e
  in
  (* malicious tables: 0 -> 3 -> 2, skipping the waypoint at 1 *)
  let model = Net_check.Model.create ring in
  let rule ~node ~to_ =
    let port =
      if to_ = -1 then Net_topo.host_port
      else Option.get (Net_topo.port_to ring ~src:node ~dst:to_)
    in
    Net_check.Model.apply model node
      (Agent.Add (Net_policy.rule f ~version:0 ~port))
  in
  rule ~node:0 ~to_:3;
  rule ~node:3 ~to_:2;
  rule ~node:2 ~to_:(-1);
  let rng = Rng.create ~seed:4 in
  let violations =
    Net_check.consistent ~rng plan
      ~stamps:(fun _ -> Some 0)
      ~lookup:(Net_check.Model.lookup model) ~where:"bypass"
  in
  check_bool "waypoint bypass caught" true (violations <> [])

(* --- fleet ------------------------------------------------------------- *)

let test_fleet_install_and_lookup () =
  let sc, plan = scenario_plan ~seed:11 Line 5 in
  let fleet = Net.of_policy ~domains:1 sc.topo sc.old_policy in
  (* live tables agree with the pure model before any rollout *)
  let model =
    Net_check.Model.of_policy sc.topo ~version_of:(fun _ -> 0) sc.old_policy
  in
  for node = 0 to Net_topo.nodes sc.topo - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "node %d table" node)
      (List.map (fun (r : Rule.t) -> r.id) (Net_check.Model.rules model node))
      (List.map (fun (r : Rule.t) -> r.id) (Net.rules fleet node))
  done;
  let rng = Rng.create ~seed:2 in
  let violations =
    Net_check.consistent ~rng plan ~stamps:(Net.stamp fleet)
      ~lookup:(Net.lookup fleet) ~where:"installed"
  in
  Alcotest.(check (list string)) "fresh fleet consistent" [] violations

let test_execute_reaches_new_policy () =
  let sc, plan = scenario_plan ~seed:13 Tree 7 in
  let fleet = Net.of_policy ~domains:1 sc.topo sc.old_policy in
  let report = Net.execute fleet plan in
  check_bool "completed" true report.Net.completed;
  check_int "no casualties" 0 report.Net.failed;
  check_int "rounds all committed" (Net_plan.num_rounds plan)
    report.Net.rounds_run;
  let reference =
    Net.of_policy ~domains:1 sc.topo sc.new_policy ~version_of:(fun f ->
        List.assoc f.Net_policy.flow_id (Net_plan.stamps_after plan))
  in
  Alcotest.(check (list (pair int int)))
    "stamps converged"
    (Net_plan.stamps_after plan)
    (Net.stamps fleet);
  for node = 0 to Net_topo.nodes sc.topo - 1 do
    check_bool
      (Printf.sprintf "node %d equals reference" node)
      true
      (Net.rules fleet node = Net.rules reference node)
  done

let test_domains_bit_identical_journals () =
  let sc, plan = scenario_plan ~seed:17 Ring 5 in
  let run domains =
    let dir = Journal.fresh_dir ~prefix:"fr-test-netdom" in
    let fleet = Net.of_policy ~domains ~journal:dir sc.topo sc.old_policy in
    let report = Net.execute fleet plan in
    check_bool "completed" true report.Net.completed;
    (dir, read_tree dir, List.init 5 (Net.rules fleet))
  in
  let d1, tree1, rules1 = run 1 in
  let d4, tree4, rules4 = run 4 in
  Fun.protect
    ~finally:(fun () ->
      rm_rf d1;
      rm_rf d4)
    (fun () ->
      check_bool "installed tables identical" true (rules1 = rules4);
      Alcotest.(check (list string))
        "same journal files"
        (List.map fst tree1)
        (List.map fst tree4);
      List.iter2
        (fun (name, a) (_, b) ->
          check_bool (Printf.sprintf "journal bytes: %s" name) true (a = b))
        tree1 tree4)

let crash_resume_equals_twin ~crash_mode ~stop_after ~seed shape n =
  let topo = Net_topo.make shape n in
  let sc = Net_scenario.make ~seed topo in
  let plan =
    match Net_scenario.plan ~batch:2 sc with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan: %s" e
  in
  let dir = Journal.fresh_dir ~prefix:"fr-test-netcrash" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let fleet = Net.of_policy ~domains:1 ~journal:dir topo sc.old_policy in
      let rep =
        Net.execute ~stop_after_rounds:stop_after ~crash_mode fleet plan
      in
      let rc =
        match Net.recover ~domains:1 ~journal:dir () with
        | Ok rc -> rc
        | Error e -> Alcotest.failf "recover: %s" e
      in
      Alcotest.(check (list string)) "no recovery warnings" [] rc.Net.warnings;
      let rep2 = Net.resume rc in
      check_bool "resume completes" true rep2.Net.completed;
      if stop_after < Net_plan.num_rounds plan then
        check_bool "crash actually happened" true (not rep.Net.completed);
      let twin = Net.of_policy ~domains:1 topo sc.old_policy in
      let twin_rep = Net.execute twin plan in
      check_bool "twin completes" true twin_rep.Net.completed;
      let f = rc.Net.fleet in
      Alcotest.(check (list (pair int int)))
        "stamps equal twin" (Net.stamps twin) (Net.stamps f);
      for node = 0 to n - 1 do
        check_bool
          (Printf.sprintf "node %d equals twin" node)
          true
          (Net.rules f node = Net.rules twin node)
      done)

let test_crash_boundary () =
  crash_resume_equals_twin ~crash_mode:Net.Boundary ~stop_after:1 ~seed:9
    Net_topo.Tree 7

let test_crash_mid_submit () =
  crash_resume_equals_twin ~crash_mode:Net.Mid_submit ~stop_after:2 ~seed:9
    Net_topo.Ring 6

let test_recover_without_rollout () =
  let topo = Net_topo.make Net_topo.Line 4 in
  let sc = Net_scenario.make ~seed:21 topo in
  let dir = Journal.fresh_dir ~prefix:"fr-test-netidle" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let fleet = Net.of_policy ~domains:1 ~journal:dir topo sc.old_policy in
      let rc =
        match Net.recover ~domains:1 ~journal:dir () with
        | Ok rc -> rc
        | Error e -> Alcotest.failf "recover: %s" e
      in
      check_bool "nothing to resume" true (rc.Net.plan = None);
      Alcotest.(check (list (pair int int)))
        "stamps restored" (Net.stamps fleet)
        (Net.stamps rc.Net.fleet);
      for node = 0 to 3 do
        check_bool "tables restored" true
          (Net.rules fleet node = Net.rules rc.Net.fleet node)
      done)

(* --- fault schedules, supervision and rollback ------------------------- *)

let test_fault_codec_roundtrip () =
  List.iter
    (fun f ->
      let s = Net_scenario.fault_to_string f in
      match Net_scenario.fault_of_string s with
      | Ok f' ->
          check_bool (Printf.sprintf "%s round-trips" s) true (f = f');
          Alcotest.(check string)
            "string form is canonical" s
            (Net_scenario.fault_to_string f')
      | Error e -> Alcotest.failf "%s does not parse back: %s" s e)
    [
      (2, Net_scenario.Crash_at { round = 3; mid_flush = true });
      (0, Net_scenario.Crash_at { round = 0; mid_flush = false });
      (0, Net_scenario.Slow_from { round = 1; slow_ms = 250.; heal_after = 3 });
      (5, Net_scenario.Slow_from { round = 0; slow_ms = 0.5; heal_after = 1 });
      (1, Net_scenario.Stuck_bank { round = 0; shard = 1; rows = [ 5; 12 ] });
      (3, Net_scenario.Stuck_bank { round = 2; shard = 0; rows = [ 0 ] });
    ];
  List.iter
    (fun s ->
      match Net_scenario.fault_of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ ""; "0:crash"; "crash@1"; "0:warp@1"; "0:slow@2"; "1:slow@0=infx2";
      "0:stuck@1=2:" ]

let strict_supervision =
  {
    Net.default_supervision with
    Net.deadline_ms = 50.0;
    retries = 2;
    breaker_cooldown = 1;
  }

let test_supervised_slow_node_retries () =
  let sc, plan = scenario_plan ~seed:19 Ring 5 in
  let fleet = Net.of_policy ~domains:1 sc.topo sc.old_policy in
  let faults =
    Net_scenario.schedule_of_faults
      [ (1, Net_scenario.Slow_from { round = 0; slow_ms = 200.; heal_after = 1 }) ]
  in
  let report = Net.execute ~faults ~supervision:strict_supervision fleet plan in
  check_bool "completed despite the slow node" true report.Net.completed;
  check_int "no unresolved failures" 0 report.Net.failed;
  check_bool "the timeout was retried" true (report.Net.retried > 0);
  let twin = Net.of_policy ~domains:1 sc.topo sc.old_policy in
  let _ = Net.execute twin plan in
  Alcotest.(check (list (pair int int)))
    "stamps equal twin" (Net.stamps twin) (Net.stamps fleet);
  for node = 0 to 4 do
    check_bool
      (Printf.sprintf "node %d equals twin" node)
      true
      (Net.rules fleet node = Net.rules twin node)
  done

let test_stuck_fault_outside_switch_rejected () =
  (* A stuck bank on a shard or row the switch does not have would never
     engage; the rollout must refuse it instead of certifying nothing.
     [of_policy]'s defaults give each node 2 shards of 64 rows. *)
  let sc, plan = scenario_plan ~seed:19 Ring 5 in
  let run ~shard ~rows =
    let fleet = Net.of_policy ~domains:1 sc.topo sc.old_policy in
    let faults =
      Net_scenario.schedule_of_faults
        [ (0, Net_scenario.Stuck_bank { round = 0; shard; rows }) ]
    in
    Net.execute ~faults fleet plan
  in
  Alcotest.check_raises "shard past the switch"
    (Invalid_argument
       "Fleet.execute: node 0 stuck fault names shard 9, but the switch has \
        2 shards") (fun () -> ignore (run ~shard:9 ~rows:[ 1; 2 ]));
  Alcotest.check_raises "row past the shard"
    (Invalid_argument
       "Fleet.execute: node 0 stuck fault names row 64 of shard 1, but a \
        shard has 64 rows") (fun () -> ignore (run ~shard:1 ~rows:[ 3; 64 ]));
  let report = run ~shard:1 ~rows:[ 0; 63 ] in
  check_bool "the last row of the last shard is accepted" true
    report.Net.completed

let test_node_crash_readopted_mid_rollout () =
  let sc, plan = scenario_plan ~batch:2 ~seed:23 Tree 7 in
  let dir = Journal.fresh_dir ~prefix:"fr-test-netfault" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let fleet = Net.of_policy ~domains:1 ~journal:dir sc.topo sc.old_policy in
      let faults =
        Net_scenario.schedule_of_faults
          [ (2, Net_scenario.Crash_at { round = 1; mid_flush = true }) ]
      in
      let report =
        Net.execute ~faults ~supervision:strict_supervision fleet plan
      in
      check_bool "completed despite the node crash" true report.Net.completed;
      check_int "no unresolved failures" 0 report.Net.failed;
      check_bool "the node was re-adopted" true (report.Net.recovered >= 1);
      let twin = Net.of_policy ~domains:1 sc.topo sc.old_policy in
      let _ = Net.execute twin plan in
      Alcotest.(check (list (pair int int)))
        "stamps equal twin" (Net.stamps twin) (Net.stamps fleet);
      for node = 0 to 6 do
        check_bool
          (Printf.sprintf "node %d equals twin" node)
          true
          (Net.rules fleet node = Net.rules twin node)
      done)

let test_abort_rolls_back_to_pre_rollout () =
  let sc, plan = scenario_plan ~batch:2 ~seed:7 Ring 5 in
  check_bool "fixture has rounds to abort between"
    true
    (Net_plan.num_rounds plan >= 3);
  let dir = Journal.fresh_dir ~prefix:"fr-test-netabort" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let fleet = Net.of_policy ~domains:1 ~journal:dir sc.topo sc.old_policy in
      let report = Net.execute ~abort_after_rounds:1 fleet plan in
      (match report.Net.outcome with
      | Net.Aborted { at_round; rolled_back } ->
          check_int "aborted at the requested boundary" 1 at_round;
          check_bool "compensating rounds ran" true (rolled_back > 0)
      | _ -> Alcotest.fail "expected an Aborted outcome");
      check_bool "not reported completed" true (not report.Net.completed);
      (* the fleet must be byte-identical to one that never started *)
      let twin = Net.of_policy ~domains:1 sc.topo sc.old_policy in
      Alcotest.(check (list (pair int int)))
        "stamps back to pre-rollout"
        (Net_plan.stamps_before plan)
        (Net.stamps fleet);
      for node = 0 to 4 do
        check_bool
          (Printf.sprintf "node %d equals never-started twin" node)
          true
          (Net.rules fleet node = Net.rules twin node)
      done;
      (* the journal agrees: completed rollback, boundary = pre-rollout *)
      check_bool "fleet journal detected" true (Net.is_fleet_journal dir);
      match Net.rollout_stat ~journal:dir () with
      | Error e -> Alcotest.failf "rollout_stat: %s" e
      | Ok st ->
          Alcotest.(check string) "state" "rolled-back" st.Net.rs_state;
          check_int "forward rounds committed before the abort" 1
            st.Net.rs_committed;
          check_bool "all compensating rounds committed" true
            (st.Net.rs_rb_committed = st.Net.rs_rb_begun
            && st.Net.rs_rb_committed > 0))

let test_crash_during_rollback_recovers () =
  let sc, plan = scenario_plan ~batch:2 ~seed:7 Ring 5 in
  let dir = Journal.fresh_dir ~prefix:"fr-test-netrbcrash" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let fleet = Net.of_policy ~domains:1 ~journal:dir sc.topo sc.old_policy in
      let report =
        Net.execute ~abort_after_rounds:2 ~stop_in_rollback:1 fleet plan
      in
      check_bool "controller died mid-rollback" true
        (report.Net.outcome = Net.Crashed);
      (* recover sees the in-flight compensating plan and finishes it *)
      let rc =
        match Net.recover ~domains:1 ~journal:dir () with
        | Ok rc -> rc
        | Error e -> Alcotest.failf "recover: %s" e
      in
      check_bool "recovery is a rollback" true rc.Net.aborting;
      check_bool "inverse plan re-derived" true (rc.Net.plan <> None);
      check_int "one compensating round already committed" 1 rc.Net.next_round;
      let rep2 = Net.resume rc in
      check_bool "rollback resumes to completion" true rep2.Net.completed;
      let twin = Net.of_policy ~domains:1 sc.topo sc.old_policy in
      let f = rc.Net.fleet in
      Alcotest.(check (list (pair int int)))
        "stamps back to pre-rollout"
        (Net_plan.stamps_before plan)
        (Net.stamps f);
      for node = 0 to 4 do
        check_bool
          (Printf.sprintf "node %d equals never-started twin" node)
          true
          (Net.rules f node = Net.rules twin node)
      done;
      (* a second recover finds nothing in flight *)
      match Net.recover ~domains:1 ~journal:dir () with
      | Error e -> Alcotest.failf "second recover: %s" e
      | Ok rc2 ->
          check_bool "nothing left to resume" true (rc2.Net.plan = None);
          Alcotest.(check (list (pair int int)))
            "recovered stamps are pre-rollout"
            (Net_plan.stamps_before plan)
            (Net.stamps rc2.Net.fleet))

(* --- conformance oracle ------------------------------------------------ *)

let findings_text (r : Oracle.fleet_report) =
  String.concat "; "
    (List.map (fun (d : Oracle.divergence) -> d.detail) r.Oracle.fleet_findings)

let test_run_fleet_fixtures () =
  List.iter
    (fun (shape, n, seed) ->
      let _, plan = scenario_plan ~batch:4 ~seed shape n in
      let r =
        Oracle.run_fleet ~domains:1
          [ { Oracle.plan; faults = []; supervision = None; abort_at = None } ]
      in
      if not (Oracle.fleet_clean r) then
        Alcotest.failf "%s seed %d: %s"
          (Net_topo.shape_to_string shape)
          seed (findings_text r);
      let lanes = List.concat_map snd r.Oracle.cases in
      check_int "five schedulers" 5 (List.length lanes);
      List.iter
        (fun (l : Oracle.fleet_lane) ->
          check_bool "probe points cover rounds" true
            (l.probe_points > Net_plan.num_rounds plan))
        lanes)
    [ (Net_topo.Line, 6, 1); (Net_topo.Ring, 5, 2); (Net_topo.Tree, 7, 3) ]

let test_run_fleet_chaos_small () =
  let r = Oracle.run_fleet ~domains:1 (Oracle.chaos_cases ~seed:42 10) in
  if not (Oracle.fleet_clean r) then
    Alcotest.failf "chaos divergences: %s" (findings_text r);
  check_int "every case ran" 10 (List.length r.Oracle.cases);
  check_bool "cases probe the rollout" true
    (List.for_all
       (fun (_, lanes) ->
         List.for_all (fun (l : Oracle.fleet_lane) -> l.probe_points > 0) lanes)
       r.Oracle.cases)

let test_chaos_fingerprint_domains_invariant () =
  let cases = Oracle.chaos_cases ~seed:42 8 in
  let r1 = Oracle.run_fleet ~domains:1 cases in
  let r2 = Oracle.run_fleet ~domains:2 cases in
  check_bool "domains 1 clean" true (Oracle.fleet_clean r1);
  check_bool "domains 2 clean" true (Oracle.fleet_clean r2);
  Alcotest.(check string)
    "verdict fingerprint is domain-count-invariant"
    (Oracle.fleet_fingerprint r1)
    (Oracle.fleet_fingerprint r2)

(* A lane that cannot finish must be reported, not passed: a node touched
   in round 0 acks too late for every attempt, and [hold = Wait] with a
   two-pass budget parks the rollout there. *)
let test_run_fleet_reports_wedge () =
  let _, plan = scenario_plan ~batch:4 ~seed:19 Ring 5 in
  let node = fst (List.hd (List.hd (Net_plan.rounds plan)).Net_plan.batches) in
  let case =
    {
      Oracle.plan;
      faults =
        Net_scenario.schedule_of_faults
          [
            ( node,
              Net_scenario.Slow_from
                { round = 0; slow_ms = 200.; heal_after = max_int } );
          ];
      supervision =
        Some
          {
            strict_supervision with
            Net.hold = Net.Wait;
            hold_budget = 2;
            sup_seed = 19;
          };
      abort_at = None;
    }
  in
  let r = Oracle.run_fleet ~domains:1 [ case ] in
  check_bool "wedged case is not clean" false (Oracle.fleet_clean r);
  List.iter
    (fun (l : Oracle.fleet_lane) ->
      Alcotest.(check string) (l.kind ^ " held at round 0") "held@0" l.verdict)
    (List.concat_map snd r.Oracle.cases);
  check_bool "a divergence names the case and the wedge" true
    (List.exists
       (fun (d : Oracle.divergence) ->
         String.starts_with ~prefix:"case 0 (seed 19): rollout wedged" d.detail)
       r.Oracle.fleet_findings)

(* The model check behind every settled lane: a fleet that never ran
   the plan is on the pre-rollout policy, not the new one. *)
let test_fleet_converged_model () =
  let sc, plan = scenario_plan ~batch:4 ~seed:5 Tree 7 in
  let fleet = Net.of_policy ~domains:1 sc.topo sc.old_policy in
  (match Oracle.fleet_converged plan fleet Net.Completed with
  | Ok _ -> Alcotest.fail "an unrolled fleet passed as the new policy"
  | Error why ->
      Alcotest.(check string)
        "tables and stamps named"
        "final tables and stamps differ from the new policy model" why);
  (match
     Oracle.fleet_converged plan fleet
       (Net.Aborted { at_round = 0; rolled_back = 0 })
   with
  | Ok target -> Alcotest.(check string) "target" "pre-rollout policy" target
  | Error why -> Alcotest.failf "pre-rollout fleet rejected: %s" why);
  let _ = Net.execute fleet plan in
  match Oracle.fleet_converged plan fleet Net.Completed with
  | Ok target -> Alcotest.(check string) "target" "new policy" target
  | Error why -> Alcotest.failf "rolled-out fleet rejected: %s" why

(* --- rollout report round-trip ------------------------------------------ *)

(* One rollout as [net --json] records it: the run's parameters, its
   seed and effective domain count, then {!Net.report_json}.  The record
   alone re-runs the rollout; everything but the wall-clock keys must
   serialise byte-for-byte identically. *)
let rollout_record ~shape ~nodes ~batch ~seed ~domains =
  let topo = Net_topo.make shape nodes in
  let flows = nodes in
  let sc =
    Net_scenario.make ~flows ~reroute:(flows / 3) ~withdraw:1 ~introduce:1
      ~waypoints:2 ~seed topo
  in
  let plan =
    match Net_scenario.plan ~batch sc with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan: %s" e
  in
  let fleet =
    Net.of_policy ~capacity:(4 * flows) ~domains topo sc.old_policy
  in
  let report = Net.execute fleet plan in
  check_bool "rollout completes" true report.Net.completed;
  let open Telemetry.Json in
  Obj
    ([
       ("shape", Str (Net_topo.shape_name topo));
       ("nodes", Int nodes);
       ("batch", Int batch);
       ("seed", Int seed);
       ("domains", Int (Net.domains fleet));
       ("rounds", Int (Net_plan.num_rounds plan));
       ("total_mods", Int (Net_plan.total_mods plan));
     ]
    @ Net.report_json report)

let record_field record key =
  match record with
  | Telemetry.Json.Obj fields -> (
      match List.assoc_opt key fields with
      | Some (Telemetry.Json.Int i) -> i
      | _ -> Alcotest.failf "record has no int field %S" key)
  | _ -> Alcotest.failf "record is not an object"

let rec strip_wall = function
  | Telemetry.Json.Obj fields ->
      Telemetry.Json.Obj
        (List.filter_map
           (fun (k, v) -> if k = "wall_ms" then None else Some (k, strip_wall v))
           fields)
  | Telemetry.Json.List vs -> Telemetry.Json.List (List.map strip_wall vs)
  | v -> v

let test_report_json_roundtrip () =
  let record =
    rollout_record ~shape:Net_topo.Ring ~nodes:5 ~batch:4 ~seed:29 ~domains:2
  in
  check_int "record keeps the effective domains" 2
    (record_field record "domains");
  let rounds =
    match record with
    | Telemetry.Json.Obj fields -> (
        match List.assoc_opt "per_round" fields with
        | Some (Telemetry.Json.List rs) -> List.length rs
        | _ -> Alcotest.fail "no per_round list")
    | _ -> Alcotest.fail "record is not an object"
  in
  check_int "one per_round entry per planned round"
    (record_field record "rounds") rounds;
  (* re-run the rollout from nothing but the record's own fields *)
  let again =
    rollout_record ~shape:Net_topo.Ring ~nodes:(record_field record "nodes")
      ~batch:(record_field record "batch") ~seed:(record_field record "seed")
      ~domains:(record_field record "domains")
  in
  Alcotest.(check string)
    "recorded seed+domains reproduce the report byte-for-byte"
    (Telemetry.Json.to_string (strip_wall record))
    (Telemetry.Json.to_string (strip_wall again))

(* --- properties -------------------------------------------------------- *)

let arb_scenario =
  let gen =
    QCheck.Gen.(
      let* shape = oneofl [ Net_topo.Line; Net_topo.Ring; Net_topo.Tree ] in
      let* nodes = int_range 3 8 in
      let* seed = int_range 0 100_000 in
      let* flows = int_range 3 9 in
      let* reroute = int_range 0 flows in
      let* withdraw = int_range 0 2 in
      let* introduce = int_range 0 2 in
      let* waypoints = int_range 0 3 in
      let* batch = int_range 1 5 in
      return (shape, nodes, seed, flows, reroute, withdraw, introduce, waypoints, batch))
  in
  QCheck.make
    ~print:(fun (shape, nodes, seed, flows, reroute, withdraw, introduce, wps, batch) ->
      Printf.sprintf
        "%s/%d seed=%d flows=%d reroute=%d withdraw=%d introduce=%d wps=%d \
         batch=%d"
        (Net_topo.shape_to_string shape)
        nodes seed flows reroute withdraw introduce wps batch)
    gen

let build_scenario (shape, nodes, seed, flows, reroute, withdraw, introduce, waypoints, _) =
  let topo = Net_topo.make shape nodes in
  Net_scenario.make ~flows ~reroute ~withdraw ~introduce ~waypoints ~seed topo

(* The headline qcheck property: any random small topology and policy
   diff plans into a rollout whose every reachable instant the
   brute-force enumerator certifies consistent. *)
let prop_random_topology_consistent =
  QCheck.Test.make ~name:"planner output consistent on random topologies"
    ~count:120 arb_scenario (fun params ->
      let (_, _, seed, _, _, _, _, _, batch) = params in
      let sc = build_scenario params in
      match Net_scenario.plan ~batch sc with
      | Error e -> QCheck.Test.fail_reportf "does not plan: %s" e
      | Ok plan -> (
          match Net_check.check_plan ~seed plan with
          | Ok () -> true
          | Error vs ->
              QCheck.Test.fail_reportf "inconsistent instant: %s"
                (String.concat "; " vs)))

(* Fleet-level crash twin: crash at a random round boundary (or inside
   the next round's submit), recover from the journals alone, re-drive
   the rest, and land exactly on a never-crashed twin. *)
let prop_crash_recover_twin =
  QCheck.Test.make ~name:"crashed rollout recovers to the twin" ~count:12
    arb_scenario (fun params ->
      let (_, _, _, _, _, _, _, _, batch) = params in
      let sc = build_scenario params in
      match Net_scenario.plan ~batch sc with
      | Error e -> QCheck.Test.fail_reportf "does not plan: %s" e
      | Ok plan ->
          let rounds = Net_plan.num_rounds plan in
          QCheck.assume (rounds > 0);
          let (_, _, seed, _, _, _, _, _, _) = params in
          let rng = Rng.create ~seed in
          let stop_after = Rng.int_in rng 0 (rounds - 1) in
          let crash_mode =
            if Rng.bool rng then Net.Boundary else Net.Mid_submit
          in
          let dir = Journal.fresh_dir ~prefix:"fr-prop-netcrash" in
          Fun.protect
            ~finally:(fun () -> rm_rf dir)
            (fun () ->
              let fleet =
                Net.of_policy ~domains:1 ~journal:dir sc.topo sc.old_policy
              in
              let _ =
                Net.execute ~stop_after_rounds:stop_after ~crash_mode fleet
                  plan
              in
              match Net.recover ~domains:1 ~journal:dir () with
              | Error e -> QCheck.Test.fail_reportf "recover: %s" e
              | Ok rc ->
                  if rc.Net.warnings <> [] then
                    QCheck.Test.fail_reportf "warnings: %s"
                      (String.concat "; " rc.Net.warnings);
                  let rep = Net.resume rc in
                  if not rep.Net.completed then
                    QCheck.Test.fail_reportf "resume did not complete";
                  let twin =
                    Net.of_policy ~domains:1 sc.topo sc.old_policy
                  in
                  let _ = Net.execute twin plan in
                  let f = rc.Net.fleet in
                  if Net.stamps f <> Net.stamps twin then
                    QCheck.Test.fail_reportf "stamps differ from twin";
                  let nodes = Net_topo.nodes sc.topo in
                  let rec nodes_equal i =
                    i >= nodes
                    || (Net.rules f i = Net.rules twin i && nodes_equal (i + 1))
                  in
                  if not (nodes_equal 0) then
                    QCheck.Test.fail_reportf "tables differ from twin";
                  true))

(* Compensating-rollback algebra at the pure-model level: execute any
   fully-committed prefix of a plan, then its inverse, and the tables
   and stamps land exactly back on the pre-rollout state.  Model.apply
   raises on duplicate installs / missing removes, so the equality is
   strict — the inverse must be exact, not merely idempotent. *)
let prop_inverse_plan_restores_model =
  QCheck.Test.make ~name:"prefix + inverse plan = identity (pure model)"
    ~count:80 arb_scenario (fun params ->
      let (_, _, seed, _, _, _, _, _, batch) = params in
      let sc = build_scenario params in
      match Net_scenario.plan ~batch sc with
      | Error e -> QCheck.Test.fail_reportf "does not plan: %s" e
      | Ok plan ->
          let rounds = Net_plan.rounds plan in
          let n = List.length rounds in
          QCheck.assume (n > 0);
          let rng = Rng.create ~seed in
          let upto = Rng.int_in rng 0 n in
          let stamps0 = Net_plan.stamps_before plan in
          let version_of (f : Net_policy.flow) =
            match List.assoc_opt f.Net_policy.flow_id stamps0 with
            | Some v -> v
            | None -> 0
          in
          let model =
            Net_check.Model.of_policy sc.topo ~version_of sc.old_policy
          in
          let stamps = Hashtbl.create 16 in
          List.iter (fun (f, v) -> Hashtbl.replace stamps f (Some v)) stamps0;
          let apply_round (r : Net_plan.round) =
            List.iter
              (fun (node, mods) ->
                List.iter (Net_check.Model.apply model node) mods)
              r.Net_plan.batches;
            List.iter
              (fun (f, v) -> Hashtbl.replace stamps f v)
              r.Net_plan.stamp_changes
          in
          List.iter
            (fun (r : Net_plan.round) ->
              if r.Net_plan.index < upto then apply_round r)
            rounds;
          List.iter apply_round
            (Net_plan.rounds (Net_plan.inverse ~upto plan));
          let reference =
            Net_check.Model.of_policy sc.topo ~version_of sc.old_policy
          in
          let nodes = Net_topo.nodes sc.topo in
          let rec tables_equal i =
            i >= nodes
            || (Net_check.Model.rules model i
                = Net_check.Model.rules reference i
               && tables_equal (i + 1))
          in
          if not (tables_equal 0) then
            QCheck.Test.fail_reportf "tables differ after rollback (upto=%d)"
              upto;
          let final =
            Hashtbl.fold
              (fun f v acc ->
                match v with Some v -> (f, v) :: acc | None -> acc)
              stamps []
            |> List.sort compare
          in
          if final <> stamps0 then
            QCheck.Test.fail_reportf "stamps differ after rollback (upto=%d)"
              upto;
          true)

let to_alcotest tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "net-topo",
      [
        Alcotest.test_case "shapes" `Quick test_topo_shapes;
        Alcotest.test_case "ports" `Quick test_topo_ports;
        Alcotest.test_case "simple paths" `Quick test_simple_paths;
      ] );
    ( "net-policy",
      [
        Alcotest.test_case "hop rules" `Quick test_hop_rules;
        Alcotest.test_case "pure region and winner" `Quick
          test_pure_region_and_winner;
        Alcotest.test_case "check rejects" `Quick test_policy_check_rejects;
      ] );
    ( "net-plan",
      [
        Alcotest.test_case "phase order" `Quick test_plan_phases;
        Alcotest.test_case "batch bound" `Quick test_plan_batch_bound;
        Alcotest.test_case "stamps" `Quick test_plan_stamps;
      ] );
    ( "net-check",
      [
        Alcotest.test_case "fixtures consistent" `Quick
          test_check_plan_fixtures;
        Alcotest.test_case "premature flip caught" `Quick
          test_check_catches_premature_flip;
        Alcotest.test_case "waypoint bypass caught" `Quick
          test_check_catches_waypoint_bypass;
      ] );
    ( "net-fleet",
      [
        Alcotest.test_case "install and lookup" `Quick
          test_fleet_install_and_lookup;
        Alcotest.test_case "execute reaches new policy" `Quick
          test_execute_reaches_new_policy;
        Alcotest.test_case "domains bit-identical journals" `Quick
          test_domains_bit_identical_journals;
        Alcotest.test_case "crash at boundary, resume = twin" `Quick
          test_crash_boundary;
        Alcotest.test_case "crash mid-submit, resume = twin" `Quick
          test_crash_mid_submit;
        Alcotest.test_case "recover without rollout" `Quick
          test_recover_without_rollout;
        Alcotest.test_case "report json round-trips" `Quick
          test_report_json_roundtrip;
      ] );
    ( "net-supervision",
      [
        Alcotest.test_case "fault codec round-trips" `Quick
          test_fault_codec_roundtrip;
        Alcotest.test_case "slow node retried to completion" `Quick
          test_supervised_slow_node_retries;
        Alcotest.test_case "stuck fault past the switch" `Quick
          test_stuck_fault_outside_switch_rejected;
        Alcotest.test_case "crashed node re-adopted mid-rollout" `Quick
          test_node_crash_readopted_mid_rollout;
        Alcotest.test_case "abort rolls back to pre-rollout" `Quick
          test_abort_rolls_back_to_pre_rollout;
        Alcotest.test_case "crash during rollback recovers" `Quick
          test_crash_during_rollback_recovers;
      ] );
    ( "net-oracle",
      [
        Alcotest.test_case "line/ring/tree clean" `Quick test_run_fleet_fixtures;
        Alcotest.test_case "chaos: 10 seeded schedules clean" `Quick
          test_run_fleet_chaos_small;
        Alcotest.test_case "chaos: fingerprint domains-invariant" `Quick
          test_chaos_fingerprint_domains_invariant;
        Alcotest.test_case "wedged case is reported" `Quick
          test_run_fleet_reports_wedge;
        Alcotest.test_case "model check tells old from new" `Quick
          test_fleet_converged_model;
      ] );
    ( "net-props",
      to_alcotest
        [
          prop_random_topology_consistent;
          prop_crash_recover_twin;
          prop_inverse_plan_restores_model;
        ] );
  ]
