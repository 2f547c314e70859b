open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_policy () = Dataset.generate Dataset.FW4 ~seed:61 ~n:80

(* Compare hardware lookup against the linear specification on packets
   sampled inside installed rules (random 104-bit packets almost never hit
   anything) plus a few uniform ones. *)
let lookups_agree rng agent =
  let ok = ref true in
  let probe pkt =
    let hw = Agent.lookup agent pkt and spec = Agent.semantic_lookup agent pkt in
    let same =
      match (hw, spec) with
      | None, None -> true
      | Some a, Some b -> a.Rule.id = b.Rule.id
      | _ -> false
    in
    if not same then ok := false
  in
  List.iter
    (fun (r : Rule.t) ->
      for _ = 1 to 3 do
        probe (Header.packet_in rng r.Rule.field)
      done)
    (Agent.rules agent);
  for _ = 1 to 20 do
    probe (Header.random_packet rng)
  done;
  !ok

let test_of_rules_and_lookup () =
  let rules = small_policy () in
  let agent = Agent.of_rules ~capacity:200 rules in
  check_int "loaded" 80 (Agent.rule_count agent);
  let rng = Rng.create ~seed:62 in
  check "lookup = spec" true (lookups_agree rng agent)

let test_add_remove_set_action () =
  let agent = Agent.create ~verify:true ~capacity:64 () in
  let mk id prio s =
    Rule.make ~id
      ~field:(Header.pack { Header.wildcard with
                            Header.dst_ip = Ternary.prefix_of_int64 ~width:32 ~plen:prio s })
      ~action:(Rule.Forward id) ~priority:prio
  in
  let broad = mk 1 8 0x0A000000L in
  let narrow = mk 2 24 0x0A000100L in
  check "add broad" true (Agent.apply agent (Agent.Add broad) = Ok ());
  check "add narrow" true (Agent.apply agent (Agent.Add narrow) = Ok ());
  check_int "two rules" 2 (Agent.rule_count agent);
  check "dup rejected" true (Result.is_error (Agent.apply agent (Agent.Add broad)));
  (* Narrow must shadow broad for packets in its prefix. *)
  let rng = Rng.create ~seed:63 in
  let pkt = Header.packet_in rng narrow.Rule.field in
  check "narrow wins" true
    (match Agent.lookup agent pkt with Some r -> r.Rule.id = 2 | None -> false);
  (* Action rewrite in place: still the same match outcome, new action. *)
  check "set action" true
    (Agent.apply agent (Agent.Set_action { id = 2; action = Rule.Drop }) = Ok ());
  check "action updated" true
    (match Agent.lookup agent pkt with
    | Some r -> Rule.equal_action r.Rule.action Rule.Drop
    | None -> false);
  (* Remove the narrow rule: broad takes over. *)
  check "remove" true (Agent.apply agent (Agent.Remove { id = 2 }) = Ok ());
  check "broad now matches" true
    (match Agent.lookup agent pkt with Some r -> r.Rule.id = 1 | None -> false);
  check "remove missing rejected" true
    (Result.is_error (Agent.apply agent (Agent.Remove { id = 2 })));
  check "set-action missing rejected" true
    (Result.is_error
       (Agent.apply agent (Agent.Set_action { id = 99; action = Rule.Drop })))

let test_removal_keeps_transitive_shadowing () =
  (* a (broad, low prio) / b (middle) / c (narrow, high prio): after
     removing b, packets in c must still hit c, not a. *)
  let mk id plen v =
    Rule.make ~id
      ~field:(Header.pack { Header.wildcard with
                            Header.dst_ip = Ternary.prefix_of_int64 ~width:32 ~plen v })
      ~action:(Rule.Forward id) ~priority:plen
  in
  let a = mk 1 8 0x0A000000L in
  let b = mk 2 16 0x0A0B0000L in
  let c = mk 3 24 0x0A0B0C00L in
  let agent = Agent.of_rules ~verify:true ~capacity:16 [| a; b; c |] in
  check "remove middle" true (Agent.apply agent (Agent.Remove { id = 2 }) = Ok ());
  let rng = Rng.create ~seed:64 in
  let pkt = Header.packet_in rng c.Rule.field in
  check "narrow still wins" true
    (match Agent.lookup agent pkt with Some r -> r.Rule.id = 3 | None -> false);
  check "lookup = spec" true (lookups_agree rng agent)

let test_random_mod_stream_semantics () =
  (* The big one: a random flow-mod stream with verification on; after
     every mod the hardware must agree with the specification. *)
  let rng = Rng.create ~seed:65 in
  List.iter
    (fun kind ->
      let rules = Dataset.generate Dataset.ACL4 ~seed:66 ~n:60 in
      let agent = Agent.of_rules ~kind ~verify:true ~capacity:256 rules in
      let next_id = ref 1_000 in
      for _ = 1 to 80 do
        let installed = Agent.rules agent in
        let n_inst = List.length installed in
        let choice = Rng.int rng 10 in
        if choice < 5 || n_inst < 5 then begin
          (* add: a refinement of an existing rule or a fresh random one *)
          let id = !next_id in
          incr next_id;
          let field =
            if Rng.chance rng 0.5 && n_inst > 0 then begin
              let parent = List.nth installed (Rng.int rng n_inst) in
              (* Specialise: pin some wildcard bits of the parent. *)
              let f = ref parent.Rule.field in
              for pos = 0 to Ternary.width !f - 1 do
                if Ternary.get !f pos = Ternary.Any && Rng.chance rng 0.3 then
                  f :=
                    Ternary.set !f pos
                      (if Rng.bool rng then Ternary.One else Ternary.Zero)
              done;
              !f
            end
            else
              Header.pack
                {
                  Header.wildcard with
                  Header.dst_ip =
                    Ternary.prefix_of_int64 ~width:32
                      ~plen:(8 + Rng.int rng 25)
                      (Rng.bits64 rng);
                  proto = Ternary.exact_of_int64 ~width:8 6L;
                }
          in
          let r =
            Rule.make ~id ~field
              ~action:(Rule.Forward (Rng.int rng 8))
              ~priority:(Ternary.width field - Ternary.num_wildcards field)
          in
          match Agent.apply agent (Agent.Add r) with
          | Ok () | Error _ -> ()
        end
        else if choice < 8 && n_inst > 0 then begin
          let victim = List.nth installed (Rng.int rng n_inst) in
          match Agent.apply agent (Agent.Remove { id = victim.Rule.id }) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "remove failed: %s" e
        end
        else if n_inst > 0 then begin
          let victim = List.nth installed (Rng.int rng n_inst) in
          match
            Agent.apply agent
              (Agent.Set_action
                 { id = victim.Rule.id; action = Rule.Forward (Rng.int rng 8) })
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "set-action failed: %s" e
        end;
        check "invariant" true
          (Tcam.check_dag_order (Agent.tcam agent) (Agent.graph agent) = Ok ())
      done;
      check
        (Firmware.algo_kind_name kind ^ ": final lookup = spec")
        true (lookups_agree rng agent))
    [ Firmware.FR_O Store.Bit_backend; Firmware.FR_SB Store.Array_backend ]

let test_flow_counters () =
  let rules = small_policy () in
  let agent = Agent.of_rules ~capacity:200 rules in
  let rng = Rng.create ~seed:67 in
  let target = rules.(5) in
  let hits = ref 0 in
  for _ = 1 to 25 do
    let pkt = Header.packet_in rng target.Rule.field in
    match Agent.lookup agent pkt with
    | Some r when r.Rule.id = target.Rule.id -> incr hits
    | Some _ | None -> ()
  done;
  check_int "counter = observed hits" !hits (Agent.packet_count agent target.Rule.id);
  check_int "total" 25 (Agent.total_packets agent);
  check "misses + matches = total" true
    (Agent.miss_count agent <= Agent.total_packets agent);
  check_int "unknown rule" 0 (Agent.packet_count agent 123_456);
  (* Counter survives an action rewrite and dies with removal. *)
  (match Agent.apply agent (Agent.Set_action { id = target.Rule.id; action = Rule.Drop }) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "set-action: %s" e);
  check_int "survives set-action" !hits (Agent.packet_count agent target.Rule.id);
  (match Agent.apply agent (Agent.Remove { id = target.Rule.id }) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "remove: %s" e);
  check_int "gone after remove" 0 (Agent.packet_count agent target.Rule.id)

let test_snapshot_restore () =
  let rules = small_policy () in
  let agent = Agent.of_rules ~capacity:200 rules in
  (* Mutate a bit first. *)
  (match Agent.apply agent (Agent.Remove { id = 3 }) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "remove: %s" e);
  let path = Filename.temp_file "fastrule_agent" ".rules" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Agent.save agent path;
      match Agent.restore ~capacity:200 path with
      | Error e -> Alcotest.failf "restore: %s" e
      | Ok back ->
          check_int "same rule count" (Agent.rule_count agent) (Agent.rule_count back);
          (* Same semantics: probe packets inside every rule. *)
          let rng = Rng.create ~seed:68 in
          List.iter
            (fun (r : Rule.t) ->
              let pkt = Header.packet_in rng r.Rule.field in
              let id (x : Rule.t option) = Option.map (fun (r : Rule.t) -> r.Rule.id) x in
              check "same lookup" true
                (id (Agent.lookup agent pkt) = id (Agent.lookup back pkt)))
            (Agent.rules agent));
  check "restore missing file" true
    (Result.is_error (Agent.restore ~capacity:10 "/nonexistent/agent.rules"))

(* Satellite property: snapshot -> save -> restore is the identity on the
   installed table for every scheduler kind — the contract the [Fr_resil]
   checkpoint/recovery path leans on. *)
let all_kinds =
  [
    Firmware.Naive;
    Firmware.Ruletris;
    Firmware.FR_O Store.Bit_backend;
    Firmware.FR_SD Store.Bit_backend;
    Firmware.FR_SB Store.Bit_backend;
  ]

let prop_snapshot_roundtrip =
  QCheck.Test.make ~count:20
    ~name:"agent snapshot/save/restore round-trips (every scheduler kind)"
    QCheck.(pair (int_bound 1_000) (int_bound 40))
    (fun (seed, ops) ->
      let pool = Dataset.generate Dataset.ACL4 ~seed:(seed + 1) ~n:40 in
      List.for_all
        (fun kind ->
          let agent = Agent.of_rules ~kind ~capacity:200 (Array.sub pool 0 20) in
          let rng = Rng.create ~seed in
          for _ = 1 to ops do
            let i = Rng.int rng 40 in
            let fm =
              match Rng.int rng 3 with
              | 0 -> Agent.Add pool.(i)
              | 1 -> Agent.Remove { id = pool.(i).Rule.id }
              | _ ->
                  Agent.Set_action
                    { id = pool.(i).Rule.id; action = Rule.Forward (Rng.int rng 8) }
            in
            ignore (Agent.apply agent fm)
          done;
          let path = Filename.temp_file "fr_snap" ".rules" in
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              Agent.save agent path;
              match Agent.restore ~kind ~capacity:200 path with
              | Error e ->
                  QCheck.Test.fail_reportf "restore (%s): %s"
                    (Firmware.algo_kind_name kind) e
              | Ok back ->
                  Agent.snapshot agent = Agent.snapshot back
                  && Agent.rule_count agent = Agent.rule_count back
                  && Agent.verify_consistent back = Ok ()
                  && lookups_agree (Rng.create ~seed:(seed + 2)) back))
        all_kinds)

let test_meters () =
  let rules = small_policy () in
  let agent = Agent.of_rules ~capacity:200 rules in
  let id = 5_000 in
  let r =
    Rule.make ~id
      ~field:(Header.pack Header.wildcard)
      ~action:Rule.Drop ~priority:0
  in
  (match Agent.apply agent (Agent.Add r) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "add: %s" e);
  check_int "mods" 1 (Agent.mods_applied agent);
  check "tcam time accrued" true (Agent.tcam_ms_total agent > 0.0);
  check "capacity" true (Agent.capacity agent = 200)

let suite =
  [
    ( "agent",
      [
        Alcotest.test_case "bulk load + lookup" `Quick test_of_rules_and_lookup;
        Alcotest.test_case "add/remove/set-action" `Quick test_add_remove_set_action;
        Alcotest.test_case "removal keeps shadowing" `Quick
          test_removal_keeps_transitive_shadowing;
        Alcotest.test_case "random mod stream semantics" `Quick
          test_random_mod_stream_semantics;
        Alcotest.test_case "flow counters" `Quick test_flow_counters;
        Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
        Alcotest.test_case "meters" `Quick test_meters;
        QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
      ] );
  ]
