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

(* One image per hardware op: a write carries its rule from the agent's
   store, so [Agent.apply] publishes exactly as many images as it issues
   ops ([Tcam.ops_issued]), for every scheduler kind, on Adds, in-place
   and dead-row Set_actions, Removes, a Remove whose trailing balance
   move faults after its erase landed, a faulted Set_action and faulted
   Adds.  Every insert
   chain ends with the new entry's write, so a faulted Add never leaves
   its entry placed nor its rule in the store. *)
let test_one_image_per_op () =
  let pool = Dataset.generate Dataset.FW5 ~seed:71 ~n:60 in
  let partial_adds = ref 0 in
  List.iter
    (fun kind ->
      let name = Firmware.algo_kind_name kind in
      let agent = Agent.of_rules ~kind ~verify:true ~capacity:120 (Array.sub pool 0 30) in
      let tcam = Agent.tcam agent in
      let images = ref 0 in
      Agent.set_publish_observer agent (Some (fun _ -> incr images));
      let step what fm =
        let ops0 = Tcam.ops_issued tcam and images0 = !images in
        let r = Agent.apply agent fm in
        check_int
          (Printf.sprintf "%s %s: images = ops" name what)
          (Tcam.ops_issued tcam - ops0) (!images - images0);
        (r, Tcam.ops_issued tcam - ops0)
      in
      let ok what fm =
        match step what fm with
        | Ok (), _ -> ()
        | Error e, _ -> Alcotest.failf "%s %s: %s" name what e
      in
      for i = 30 to 44 do
        ok "add" (Agent.Add pool.(i))
      done;
      for i = 0 to 4 do
        ok "set-action" (Agent.Set_action { id = pool.(i).Rule.id; action = Rule.Drop })
      done;
      (* Condemn the row under a live entry: its Set_action relocates
         through Remove + Add. *)
      let id = pool.(5).Rule.id in
      let addr = Option.get (Tcam.addr_of tcam id) in
      while not (Tcam.is_dead tcam addr) do
        ignore (Tcam.note_write_failure tcam ~addr)
      done;
      ok "dead-row set-action" (Agent.Set_action { id; action = Rule.Drop });
      check (name ^ " relocated") true (Tcam.addr_of tcam id <> Some addr);
      for i = 6 to 11 do
        ok "remove" (Agent.Remove { id = pool.(i).Rule.id })
      done;
      (* Each slot carries the store's rule, rewritten actions included. *)
      check (name ^ " consistent") true (Agent.verify_consistent agent = Ok ());
      (* A stuck lowest row: its entry's erase lands, and FR-SB's balance
         move into the hole fails after it. *)
      let low = Option.get (Tcam.first_used tcam (fun _ -> true)) in
      let id = match Tcam.read tcam low with Tcam.Used id -> id | Tcam.Free -> -1 in
      Agent.set_fault agent (Some (Fault.create ~stuck:[ low ] ~seed:1 ()));
      (match step "faulted remove" (Agent.Remove { id }) with
      | Error e, _ ->
          check (name ^ " erase landed") true
            (String.starts_with ~prefix:"fault:" e && not (Tcam.mem tcam id))
      | Ok (), _ -> check (name ^ " only fr-sb balances") true (name <> "fr-sb"));
      check (name ^ " removed from the store") true (Agent.rule agent id = None);
      (* Every occupied row stuck: a chain's first op lands in free space
         and the next write, into a vacated row, fails. *)
      let used = ref [] in
      Tcam.iter_used tcam (fun ~addr ~rule_id:_ -> used := addr :: !used);
      Agent.set_fault agent (Some (Fault.create ~stuck:!used ~seed:2 ()));
      let id = pool.(0).Rule.id in
      let old = Option.get (Agent.rule agent id) in
      (match step "faulted set-action" (Agent.Set_action { id; action = Rule.Forward 9 }) with
      | Error _, _ ->
          check (name ^ " old rule restored") true (Option.get (Agent.rule agent id) == old);
          check (name ^ " consistent after fault") true
            (Agent.verify_consistent agent = Ok ())
      | Ok (), _ -> Alcotest.failf "%s: a stuck row took a write" name);
      for i = 45 to 59 do
        let id = pool.(i).Rule.id in
        match step "faulted add" (Agent.Add pool.(i)) with
        | Ok (), _ -> ()
        | Error e, ops ->
            if String.starts_with ~prefix:"fault:" e && ops > 0 then incr partial_adds;
            check (name ^ " faulted add not placed") false (Tcam.mem tcam id);
            check (name ^ " faulted add not stored") true (Agent.rule agent id = None)
      done;
      Agent.set_fault agent None)
    all_kinds;
  check "some faulted add landed moves first" true (!partial_adds > 0)

(* The update path's allocation budget, on a warm 4,000-rule FW5 agent
   (FR-O, BIT store): the mean minor words of a Remove + Add pair over 50
   pairs, and of the scheduler's metric refresh alone.  Measured 866 words
   per pair and 43.4 per refresh; when the refresh built a hash table and
   a queue per call and recomputed every queued chain, it was 1,152 and
   186.  Bounds: 1,000 per pair, 50 per refresh. *)
let test_apply_allocation_bound () =
  let n = 4000 and pairs = 50 in
  let rules = Dataset.generate Dataset.FW5 ~seed:1 ~n:(n + 200) in
  let refresh_words = ref 0.0 and refreshes = ref 0 in
  let scheduler ~graph ~tcam =
    let a = Firmware.make_scheduler (Firmware.FR_O Store.Bit_backend) ~graph ~tcam in
    {
      a with
      Algo.after_apply =
        (fun ops ->
          let before = Gc.minor_words () in
          a.Algo.after_apply ops;
          refresh_words := !refresh_words +. (Gc.minor_words () -. before);
          incr refreshes);
    }
  in
  let agent = Agent.of_rules ~scheduler ~capacity:(n + (n / 2)) (Array.sub rules 0 n) in
  let rng = Rng.create ~seed:9 in
  let live = Array.init n (fun i -> rules.(i).Rule.id) and next = ref n in
  let failed = ref 0 in
  let pair () =
    let k = Rng.int rng n in
    let r = rules.(!next) in
    incr next;
    if Agent.apply agent (Agent.Remove { id = live.(k) }) <> Ok () then incr failed;
    if Agent.apply agent (Agent.Add r) <> Ok () then incr failed;
    live.(k) <- r.Rule.id
  in
  for _ = 1 to 20 do pair () done;
  refresh_words := 0.0;
  refreshes := 0;
  let before = Gc.minor_words () in
  for _ = 1 to pairs do pair () done;
  let per_pair = (Gc.minor_words () -. before) /. float pairs in
  let per_refresh = !refresh_words /. float !refreshes in
  check_int "every mod applied" 0 !failed;
  check (Printf.sprintf "words per Remove+Add %.0f < 1000" per_pair) true (per_pair < 1000.0);
  check (Printf.sprintf "words per refresh %.1f < 50" per_refresh) true (per_refresh < 50.0)

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
        Alcotest.test_case "one image per hardware op" `Quick test_one_image_per_op;
        Alcotest.test_case "apply allocation bound" `Quick test_apply_allocation_bound;
      ] );
  ]
