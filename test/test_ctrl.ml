(* Tests for the Fr_ctrl control plane: partitioner determinism, the
   coalescing state machine, shard failure isolation, and the queue's
   guiding invariant (drain == raw replay, failures ignored) as qcheck
   properties. *)

open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- partitioner ------------------------------------------------------- *)

let test_partition_determinism () =
  let p = Partition.create ~shards:4 Partition.Hash_id in
  let q = Partition.create ~shards:4 Partition.Hash_id in
  let counts = Array.make 4 0 in
  for id = 0 to 1_999 do
    let s = Partition.route_id p id in
    check "in range" true (s >= 0 && s < 4);
    check_int "deterministic" s (Partition.route_id q id);
    counts.(s) <- counts.(s) + 1
  done;
  (* splitmix spread: no shard starves (exact counts are seed-free facts
     of the hash, so a loose band is enough). *)
  Array.iter (fun c -> check "balanced" true (c > 300 && c < 700)) counts;
  check "policy round-trips" true
    (Partition.policy_of_string "prefix:8" = Some (Partition.Dst_prefix 8)
    && Partition.policy_of_string "hash" = Some Partition.Hash_id
    && Partition.policy_of_string "prefix:0" = None);
  check "bad shard count" true
    (try
       ignore (Partition.create ~shards:0 Partition.Hash_id);
       false
     with Invalid_argument _ -> true)

let test_prefix_colocation () =
  let p = Partition.create ~shards:4 (Partition.Dst_prefix 8) in
  let rule_with_dst id plen v =
    Rule.make ~id
      ~field:
        (Header.pack
           {
             Header.wildcard with
             Header.dst_ip = Ternary.prefix_of_int64 ~width:32 ~plen v;
           })
      ~action:(Rule.Forward id) ~priority:plen
  in
  (* Same /8 destination block -> same shard, whatever the id. *)
  let a = rule_with_dst 1 16 0x0A010000L in
  let b = rule_with_dst 999 24 0x0A0B0C00L in
  check_int "same /8 colocates" (Partition.route_rule p a)
    (Partition.route_rule p b);
  (* Destination bits wildcarded inside the window -> id-hash fallback. *)
  let wild = rule_with_dst 7 4 0x30000000L in
  check_int "short prefix falls back" (Partition.route_id p 7)
    (Partition.route_rule p wild);
  (* Non-5-tuple rules (narrow test headers) also fall back. *)
  let narrow =
    Rule.make ~id:11 ~field:(Ternary.of_string "10****1010")
      ~action:(Rule.Forward 11) ~priority:3
  in
  check_int "narrow header falls back" (Partition.route_id p 11)
    (Partition.route_rule p narrow)

(* --- coalescing queue -------------------------------------------------- *)

let mk_rule id =
  Rule.make ~id
    ~field:
      (Header.pack
         {
           Header.wildcard with
           Header.dst_ip =
             Ternary.prefix_of_int64 ~width:32 ~plen:24
               (Int64.of_int (0x0A000000 + (id * 256)));
         })
    ~action:(Rule.Forward id) ~priority:24

let test_coalesce_folds () =
  let q = Coalesce.create () in
  let r = mk_rule 1 in
  (* Add then Remove of a pending rule annihilates. *)
  check "add queued" true (Coalesce.push q ~installed:false (Agent.Add r) = Coalesce.Queued);
  check "remove annihilates" true
    (Coalesce.push q ~installed:false (Agent.Remove { id = 1 }) = Coalesce.Annihilated);
  check_int "nothing pending" 0 (List.length (Coalesce.pending_ops q));
  check_int "two ops saved" 2 (Coalesce.coalesced q);
  (* Repeated Set_action keeps only the last. *)
  let push_set id act installed =
    Coalesce.push q ~installed (Agent.Set_action { id; action = Rule.Forward act })
  in
  check "first set queued" true (push_set 2 1 true = Coalesce.Queued);
  check "second set folds" true (push_set 2 5 true = Coalesce.Folded);
  (match Coalesce.pending_ops q with
  | [ Agent.Set_action { id = 2; action } ] ->
      check "last action wins" true (Rule.equal_action action (Rule.Forward 5))
  | ops -> Alcotest.failf "unexpected plan (%d ops)" (List.length ops));
  (* Set then Remove of an installed rule: the rewrite is moot. *)
  check "remove folds set away" true
    (Coalesce.push q ~installed:true (Agent.Remove { id = 2 }) <> Coalesce.Queued);
  (match Coalesce.pending_ops q with
  | [ Agent.Remove { id = 2 } ] -> ()
  | ops -> Alcotest.failf "expected lone remove (%d ops)" (List.length ops));
  Coalesce.clear q;
  (* Remove of an installed rule then Add of the same id: a replace —
     the erase comes out before the insertion. *)
  check "remove queued" true
    (Coalesce.push q ~installed:true (Agent.Remove { id = 1 }) = Coalesce.Queued);
  check "re-add folds" true
    (Coalesce.push q ~installed:true (Agent.Add r) <> Coalesce.Rejected "");
  (match Coalesce.pending_ops q with
  | [ Agent.Remove { id = 1 }; Agent.Add r' ] ->
      check "replace re-adds the rule" true (r'.Rule.id = 1)
  | ops -> Alcotest.failf "expected remove;add (%d ops)" (List.length ops));
  Coalesce.clear q;
  (* Ops that can never succeed are rejected at push time. *)
  (match Coalesce.push q ~installed:true (Agent.Add r) with
  | Coalesce.Rejected _ -> ()
  | _ -> Alcotest.fail "duplicate add must be rejected");
  (match Coalesce.push q ~installed:false (Agent.Remove { id = 99 }) with
  | Coalesce.Rejected _ -> ()
  | _ -> Alcotest.fail "remove of absent must be rejected");
  check_int "rejections reported" 2 (List.length (Coalesce.rejected q));
  check_int "rejections are not pending" 0 (List.length (Coalesce.pending_ops q))

(* The folds must keep the *later* op's action: a fold that merges the
   ops but forgets the newest action silently installs stale policy —
   worse than no coalescing at all. *)
let test_coalesce_keeps_later_action () =
  let q = Coalesce.create () in
  let r = mk_rule 7 in
  (* Add (pending) then Set_action: the pending insertion must carry the
     rewritten action. *)
  check "add queued" true
    (Coalesce.push q ~installed:false (Agent.Add r) = Coalesce.Queued);
  check "set folds into pending add" true
    (Coalesce.push q ~installed:false
       (Agent.Set_action { id = 7; action = Rule.Drop })
    = Coalesce.Folded);
  (match Coalesce.pending_ops q with
  | [ Agent.Add r' ] ->
      check "pending add carries the rewrite" true
        (Rule.equal_action r'.Rule.action Rule.Drop)
  | ops -> Alcotest.failf "expected lone add (%d ops)" (List.length ops));
  Coalesce.clear q;
  (* Remove (installed) then Add of a *different* replacement rule: the
     replace must re-insert the new rule, new action included. *)
  let replacement =
    Rule.make ~id:r.Rule.id ~field:r.Rule.field ~action:(Rule.Forward 13) ~priority:30
  in
  check "remove queued" true
    (Coalesce.push q ~installed:true (Agent.Remove { id = 7 }) = Coalesce.Queued);
  check "add folds to replace" true
    (Coalesce.push q ~installed:true (Agent.Add replacement) = Coalesce.Folded);
  (match Coalesce.pending_ops q with
  | [ Agent.Remove { id = 7 }; Agent.Add r' ] ->
      check "replace re-adds the new rule" true
        (Rule.equal_action r'.Rule.action (Rule.Forward 13)
        && r'.Rule.priority = 30)
  | ops -> Alcotest.failf "expected remove;add (%d ops)" (List.length ops));
  (* ... and a Set_action landing on the replace rewrites it again. *)
  check "set folds into replace" true
    (Coalesce.push q ~installed:true
       (Agent.Set_action { id = 7; action = Rule.Controller })
    = Coalesce.Folded);
  (match Coalesce.pending_ops q with
  | [ Agent.Remove { id = 7 }; Agent.Add r' ] ->
      check "replace carries the last rewrite" true
        (Rule.equal_action r'.Rule.action Rule.Controller)
  | ops -> Alcotest.failf "expected remove;add (%d ops)" (List.length ops))

let table_of agent =
  List.sort compare
    (List.map
       (fun (r : Rule.t) -> (r.Rule.id, r.Rule.action))
       (Agent.rules agent))

(* --- shard failure isolation ------------------------------------------ *)

let test_shard_failure_isolation () =
  (* Tiny shards, and a burst aimed (by id filtering) at shard 0 only:
     the overfull shard fails mid-batch, the sibling's batch is whole. *)
  let svc = Ctrl.create ~shards:2 ~capacity:8 () in
  let part = Ctrl.partition svc in
  let to_shard s n =
    let picked = ref [] and id = ref 0 in
    while List.length !picked < n do
      if Partition.route_id part !id = s then picked := !id :: !picked;
      incr id
    done;
    List.rev !picked
  in
  List.iter (fun id -> Ctrl.submit svc (Agent.Add (mk_rule id))) (to_shard 0 12);
  List.iter (fun id -> Ctrl.submit svc (Agent.Add (mk_rule id))) (to_shard 1 3);
  let report = Ctrl.flush svc in
  let d0 = report.Ctrl.results.(0) and d1 = report.Ctrl.results.(1) in
  check_int "shard 0 filled to capacity" 8 d0.Shard.applied;
  check_int "shard 0 overflow reported" 4 (List.length d0.Shard.failed);
  check_int "sibling applied everything" 3 d1.Shard.applied;
  check_int "sibling untouched by failure" 0 (List.length d1.Shard.failed);
  check_int "route table matches agents" 11 (Ctrl.rule_count svc);
  List.iter
    (fun (fm, _) ->
      match fm with
      | Agent.Add r ->
          check "failed rules not installed" true (Ctrl.find_rule svc r.Rule.id = None)
      | _ -> Alcotest.fail "only adds were submitted")
    (Ctrl.failures report);
  (* The failed shard stays usable: freeing a slot lets the next add in. *)
  Ctrl.submit svc (Agent.Remove { id = List.hd (to_shard 0 1) });
  Ctrl.submit svc (Agent.Add (mk_rule (List.nth (to_shard 0 13) 12)));
  let report = Ctrl.flush svc in
  check_int "recovers after a remove" 0 (List.length (Ctrl.failures report));
  check_int "still at capacity" 8 d0.Shard.applied

(* --- the guiding invariant, property-tested ---------------------------- *)

(* A stream step: (kind roll, pool index, action), with kind 9 = flush. *)
let ops_gen =
  QCheck.Gen.(
    list_size (int_range 10 120)
      (triple (int_bound 9) (int_bound 59) (int_bound 7)))

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map (fun (k, i, a) -> Printf.sprintf "%d/%d/%d" k i a) ops))
    ops_gen

(* Replay the same raw stream (failures ignored) through a sharded
   service and through one plain agent; the tables must agree. *)
let service_matches_reference ~shards ~policy ops =
  let pool = Dataset.generate Dataset.ACL4 ~seed:73 ~n:60 in
  let initial = Array.sub pool 0 30 in
  let svc = Ctrl.of_rules ~policy ~shards ~capacity:200 initial in
  let ref_agent = Agent.of_rules ~capacity:200 initial in
  List.iter
    (fun (kind, idx, act) ->
      if kind = 9 then ignore (Ctrl.flush svc)
      else begin
        let id = (pool.(idx)).Rule.id in
        let fm =
          if kind < 5 then Agent.Add pool.(idx)
          else if kind < 8 then Agent.Remove { id }
          else Agent.Set_action { id; action = Rule.Forward act }
        in
        Ctrl.submit svc fm;
        ignore (Agent.apply ref_agent fm)
      end)
    ops;
  ignore (Ctrl.flush svc);
  let merged = ref [] in
  for s = 0 to Ctrl.shards svc - 1 do
    merged := table_of (Shard.agent (Ctrl.shard svc s)) @ !merged
  done;
  List.sort compare !merged = table_of ref_agent

let prop_drain_equals_raw_replay =
  QCheck.Test.make ~name:"single shard: drain == raw replay" ~count:150 arb_ops
    (service_matches_reference ~shards:1 ~policy:Partition.Hash_id)

let prop_sharded_union_equals_raw_replay =
  QCheck.Test.make ~name:"3 shards: union == raw replay" ~count:150 arb_ops
    (service_matches_reference ~shards:3 ~policy:Partition.Hash_id)

let prop_prefix_policy_union_equals_raw_replay =
  QCheck.Test.make ~name:"prefix policy: union == raw replay" ~count:100
    arb_ops
    (service_matches_reference ~shards:3 ~policy:(Partition.Dst_prefix 8))

(* --- telemetry round-trip ---------------------------------------------- *)

(* Drop the wall-clock-measured keys everywhere in a dump; what remains
   (counters, modelled TCAM time, breaker state) is deterministic, so a
   re-run from the dump's own recorded seed and domain count must
   serialise identically. *)
let rec strip_measured (j : Telemetry.Json.v) =
  match j with
  | Telemetry.Json.Obj fields ->
      Telemetry.Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if
               List.mem k
                 [
                   "wall_ms"; "firmware_ms"; "firmware_ms_total";
                   "latency_histogram";
                 ]
             then None
             else Some (k, strip_measured v))
           fields)
  | Telemetry.Json.List l -> Telemetry.Json.List (List.map strip_measured l)
  | v -> v

let json_int j key =
  match j with
  | Telemetry.Json.Obj fields -> (
      match List.assoc_opt key fields with
      | Some (Telemetry.Json.Int i) -> i
      | _ -> Alcotest.failf "dump has no int field %S" key)
  | _ -> Alcotest.failf "dump is not an object"

let test_telemetry_roundtrip () =
  let spec =
    {
      Churn.kind = Dataset.ACL4;
      initial = 200;
      ops = 300;
      shards = 3;
      capacity = 600;
      batch = 32;
      seed = 23;
    }
  in
  let first = Churn.run ~domains:2 spec in
  let dump =
    Ctrl.to_json ~scenario:"roundtrip" ~seed:spec.Churn.seed
      first.Churn.service
  in
  check_int "dump records the domains used" 2 (json_int dump "domains");
  (* re-run from nothing but the dump's own recorded parameters *)
  let seed = json_int dump "seed" in
  let domains = json_int dump "domains" in
  let again = Churn.run ~domains { spec with Churn.seed } in
  let dump' = Ctrl.to_json ~scenario:"roundtrip" ~seed again.Churn.service in
  check "recorded params reproduce the telemetry" true
    (Telemetry.Json.to_string (strip_measured dump)
    = Telemetry.Json.to_string (strip_measured dump'))

(* Every per-drain distribution is a fixed-size histogram: the footprint
   must not grow with the drain count, nor depend on the values recorded
   (a grid sized by the largest sample would make perfbench's heap words
   depend on wall-clock readings). *)
let test_telemetry_memory_bounded () =
  let words ~drains ~ms =
    let t = Telemetry.create ~cache:true () in
    for i = 1 to drains do
      Telemetry.record_drain t ~queue_depth:i ~applied:1 ~failed:0
        ~firmware_ms:ms ~hardware_ms:(ms *. 2.0) ~tcam_ops:(i mod 7)
        ~moves:0 ~wall_ms:(ms *. float_of_int i)
    done;
    Telemetry.record_cache_admission t ~rules:drains;
    Telemetry.record_cache_flush t ~inserts:drains ~deletes:1;
    Obj.reachable_words (Obj.repr t)
  in
  check_int "10 vs 100,000 drains" (words ~drains:10 ~ms:0.6)
    (words ~drains:100_000 ~ms:0.6);
  check_int "tiny vs huge values" (words ~drains:100 ~ms:1e-12)
    (words ~drains:100 ~ms:1e12);
  let fresh cache = Obj.reachable_words (Obj.repr (Telemetry.create ~cache ())) in
  check "a shard's telemetry keeps no cache histograms" true
    (fresh false < fresh true - 1000)

let suite =
  [
    ( "ctrl",
      [
        Alcotest.test_case "partition determinism" `Quick
          test_partition_determinism;
        Alcotest.test_case "prefix colocation" `Quick test_prefix_colocation;
        Alcotest.test_case "coalesce folds" `Quick test_coalesce_folds;
        Alcotest.test_case "coalesce keeps later action" `Quick
          test_coalesce_keeps_later_action;
        Alcotest.test_case "shard failure isolation" `Quick
          test_shard_failure_isolation;
        Alcotest.test_case "telemetry round-trip" `Quick
          test_telemetry_roundtrip;
        Alcotest.test_case "telemetry memory bounded" `Quick
          test_telemetry_memory_bounded;
      ] );
    ( "ctrl-props",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_drain_equals_raw_replay;
          prop_sharded_union_equals_raw_replay;
          prop_prefix_policy_union_equals_raw_replay;
        ] );
  ]
