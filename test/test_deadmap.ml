(* Tests for degraded-hardware operation below the control plane: the
   Deadmap bookkeeping, the Tcam hooks that feed it, hole-aware placement
   ([Layout.place ?deadmap]), dead-row avoidance in all five schedulers,
   the agent's probe drill and Set_action relocation, the shard restart
   path that carries hardware knowledge across rebuilds — plus the fault
   spec string round-trip (qcheck). *)

open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

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

(* a catch-all that overlaps everything, so every insert carries a real
   dependency edge and must order above it *)
let catch_all =
  Rule.make ~id:99 ~field:(Header.pack Header.wildcard) ~action:Rule.Drop
    ~priority:0

(* --- Deadmap bookkeeping ------------------------------------------------ *)

let test_deadmap_threshold () =
  check "size must be positive" true
    (raises_invalid (fun () -> Deadmap.create ~size:0 ()));
  check "threshold must be >= 1" true
    (raises_invalid (fun () -> Deadmap.create ~threshold:0 ~size:4 ()));
  let dm = Deadmap.create ~threshold:2 ~size:8 () in
  check "fresh map is empty" true (Deadmap.is_empty dm);
  check "first strike is not death" false (Deadmap.note_failure dm ~addr:3);
  check "one strike below threshold" false (Deadmap.is_dead dm 3);
  check "pending strikes break is_empty" false (Deadmap.is_empty dm);
  check "second strike crosses" true (Deadmap.note_failure dm ~addr:3);
  check "now dead" true (Deadmap.is_dead dm 3);
  check_int "one dead row" 1 (Deadmap.count dm);
  (* strikes must be consecutive: a success in between resets them *)
  ignore (Deadmap.note_failure dm ~addr:5);
  ignore (Deadmap.note_success dm ~addr:5);
  check "success resets the strike count" false (Deadmap.note_failure dm ~addr:5);
  check "still alive" false (Deadmap.is_dead dm 5);
  (* revive *)
  check "revive reports the transition" true (Deadmap.note_success dm ~addr:3);
  check "revived" false (Deadmap.is_dead dm 3);
  check "reviving a healthy row is a no-op" false (Deadmap.note_success dm ~addr:3)

let test_deadmap_mark_intervals () =
  let dm = Deadmap.create ~size:16 () in
  check "mark reports the transition" true (Deadmap.mark dm ~addr:7);
  check "re-mark is a no-op" false (Deadmap.mark dm ~addr:7);
  List.iter (fun a -> ignore (Deadmap.mark dm ~addr:a)) [ 4; 2; 3; 12 ];
  Alcotest.(check (list int))
    "dead_list ascending" [ 2; 3; 4; 7; 12 ] (Deadmap.dead_list dm);
  Alcotest.(check (list (pair int int)))
    "intervals are maximal runs"
    [ (2, 4); (7, 7); (12, 12) ]
    (Deadmap.intervals dm);
  check "out-of-range query raises" true
    (raises_invalid (fun () -> Deadmap.is_dead dm 16));
  let copy = Deadmap.copy dm in
  ignore (Deadmap.mark copy ~addr:0);
  check_int "copy is independent" 5 (Deadmap.count dm);
  check_int "copy took the mark" 6 (Deadmap.count copy);
  Deadmap.clear dm;
  check "clear forgets everything" true
    (Deadmap.is_empty dm && Deadmap.count dm = 0)

(* --- the Tcam hooks ----------------------------------------------------- *)

let test_tcam_hooks () =
  let tcam = Tcam.create ~size:8 () in
  check "default threshold condemns on first failure" true
    (Tcam.note_write_failure tcam ~addr:3);
  check "tcam sees the dead row" true (Tcam.is_dead tcam 3);
  check_int "dead_count" 1 (Tcam.dead_count tcam);
  (* a successful write revives (the map is advisory, writes are not gated) *)
  Tcam.write tcam ~rule_id:1 ~addr:3;
  check "successful write revives" false (Tcam.is_dead tcam 3);
  (* writable_free_in skips dead and occupied rows *)
  ignore (Tcam.note_write_failure tcam ~addr:0);
  ignore (Tcam.note_write_failure tcam ~addr:1);
  Tcam.write tcam ~rule_id:2 ~addr:2;
  check "writable_free_in skips dead and used" true
    (Tcam.writable_free_in tcam ~lo:0 ~hi:7 = Some 4);
  check "empty writable window" true
    (Tcam.writable_free_in tcam ~lo:0 ~hi:1 = None);
  (* copy carries an independent dead map *)
  let dup = Tcam.copy tcam in
  ignore (Tcam.note_write_failure dup ~addr:7);
  check_int "original unchanged by copy's failures" 2 (Tcam.dead_count tcam);
  check_int "copy has its own map" 3 (Tcam.dead_count dup);
  (* adopt_deadmap: restart path *)
  let dm = Deadmap.create ~size:8 () in
  ignore (Deadmap.mark dm ~addr:5);
  let fresh = Tcam.create ~size:8 () in
  Tcam.adopt_deadmap fresh dm;
  check "adopted map answers" true (Tcam.is_dead fresh 5);
  let wrong = Deadmap.create ~size:4 () in
  check "size mismatch rejected" true
    (raises_invalid (fun () -> Tcam.adopt_deadmap fresh wrong))

(* --- hole-aware placement ----------------------------------------------- *)

let order_of tcam =
  let acc = ref [] in
  Tcam.iter_used tcam (fun ~addr:_ ~rule_id -> acc := rule_id :: !acc);
  List.rev !acc

let test_place_packs_around_holes () =
  let dead = [ 0; 3; 4; 11 ] in
  let order = Array.init 10 (fun i -> 100 + i) in
  List.iter
    (fun layout ->
      let dm = Deadmap.create ~size:20 () in
      List.iter (fun a -> ignore (Deadmap.mark dm ~addr:a)) dead;
      let tcam = Layout.place ~deadmap:dm layout ~tcam_size:20 ~order in
      check_int "all entries placed" 10 (Tcam.used_count tcam);
      Alcotest.(check (list int))
        "relative order preserved" (Array.to_list order) (order_of tcam);
      List.iter
        (fun a -> check "no entry on a dead row" true (Tcam.is_free tcam a))
        dead)
    [ Layout.Original; Layout.Interleaved 4; Layout.Separated ];
  (* Original packs onto exactly the first n writable rows *)
  let dm = Deadmap.create ~size:20 () in
  List.iter (fun a -> ignore (Deadmap.mark dm ~addr:a)) dead;
  let tcam = Layout.place ~deadmap:dm Layout.Original ~tcam_size:20 ~order in
  Alcotest.(check (option int)) "skips the holes" (Some 5) (Tcam.addr_of tcam 102);
  Alcotest.(check (option int))
    "first writable row" (Some 100)
    (match Tcam.read tcam 1 with Tcam.Used id -> Some id | Tcam.Free -> None);
  (* dead rows shrink capacity: 10 entries do not fit on 9 writable rows *)
  let tight = Deadmap.create ~size:12 () in
  List.iter (fun a -> ignore (Deadmap.mark tight ~addr:a)) [ 2; 5; 9 ];
  check "over-capacity placement rejected" true
    (raises_invalid (fun () ->
         Layout.place ~deadmap:tight Layout.Original ~tcam_size:12 ~order))

(* --- all five schedulers avoid dead rows -------------------------------- *)

(* Pre-mark a scattered dead bank, install the matching stuck-at fault
   plan, and drive adds / removes / a rewrite through every scheduler:
   since the schedulers keep write targets off dead rows, not a single
   hardware fault may fire. *)
let test_schedulers_avoid_dead_rows () =
  let capacity = 64 in
  let dead = [ 0; 7; 20; 33; 50; 63 ] in
  let initial =
    Array.of_list (catch_all :: List.init 24 (fun i -> mk_rule (100 + i)))
  in
  List.iter
    (fun kind ->
      let name = Firmware.algo_kind_name kind in
      let dm = Deadmap.create ~size:capacity () in
      List.iter (fun a -> ignore (Deadmap.mark dm ~addr:a)) dead;
      let agent = Agent.of_rules ~kind ~deadmap:dm ~capacity initial in
      let fault = Fault.create ~stuck:dead ~seed:7 () in
      Agent.set_fault agent (Some fault);
      let mods =
        List.init 12 (fun i -> Agent.Add (mk_rule (200 + i)))
        @ List.init 8 (fun i -> Agent.Remove { id = 100 + (3 * i) })
        @ List.init 6 (fun i -> Agent.Add (mk_rule (300 + i)))
        @ [ Agent.Set_action { id = 201; action = Rule.Drop } ]
      in
      List.iter
        (fun m ->
          match Agent.apply agent m with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "%s rejected %a on degraded hardware: %s" name
                Agent.pp_flow_mod m e)
        mods;
      check_int
        (Printf.sprintf "%s: no fault ever fired" name)
        0 (Fault.injected fault);
      let tcam = Agent.tcam agent in
      List.iter
        (fun a ->
          check
            (Printf.sprintf "%s: dead row %d stayed empty" name a)
            true (Tcam.is_free tcam a))
        dead;
      check
        (Printf.sprintf "%s: table consistent" name)
        true
        (Agent.verify_consistent agent = Ok ()))
    (Firmware.standard_algos Store.Bit_backend)

(* --- the probe drill ---------------------------------------------------- *)

let test_probe_dead () =
  (* no fault plan: every mark is spurious and the drill clears them all *)
  let agent = Agent.create ~capacity:16 () in
  let tcam = Agent.tcam agent in
  ignore (Tcam.note_write_failure tcam ~addr:3);
  ignore (Tcam.note_write_failure tcam ~addr:5);
  check_int "two dead rows" 2 (Agent.dead_rows agent);
  check "all spurious marks clear" true (Agent.probe_dead agent = (2, 2));
  check_int "healthy again" 0 (Agent.dead_rows agent);
  (* a stuck row survives the drill, a healed one is revived *)
  let agent = Agent.create ~capacity:16 () in
  let tcam = Agent.tcam agent in
  let fault = Fault.create ~stuck:[ 3 ] ~seed:1 () in
  Agent.set_fault agent (Some fault);
  ignore (Tcam.note_write_failure tcam ~addr:3);
  ignore (Tcam.note_write_failure tcam ~addr:5);
  check "only the healed row recovers" true (Agent.probe_dead agent = (2, 1));
  check "stuck row still condemned" true (Tcam.is_dead tcam 3);
  check "healed row revived" false (Tcam.is_dead tcam 5);
  check_int "probes draw nothing from the fault plan" 0 (Fault.injected fault)

(* Rows a probe revives are usable again: a store that raised them to the
   dead sentinel must lower them, or an Add that needs one keeps failing
   after the heal.  Every scheduler that keeps metric stores is checked. *)
let test_probe_revives_rows_for_schedulers () =
  let rules = Dataset.generate Dataset.FW5 ~seed:3 ~n:5 in
  List.iter
    (fun kind ->
      let name = Firmware.algo_kind_name kind in
      let agent = Agent.create ~kind ~capacity:8 () in
      let tcam = Agent.tcam agent in
      for i = 0 to 3 do
        check (name ^ ": preload") true (Agent.apply agent (Agent.Add rules.(i)) = Ok ())
      done;
      for a = 0 to 7 do
        if Tcam.is_free tcam a then ignore (Tcam.note_write_failure tcam ~addr:a)
      done;
      let add = Agent.Add rules.(4) in
      check (name ^ ": no writable row") true (Result.is_error (Agent.apply agent add));
      check (name ^ ": probe revives all four") true (Agent.probe_dead agent = (4, 4));
      check_int (name ^ ": none dead") 0 (Agent.dead_rows agent);
      check (name ^ ": the add lands after the heal") true (Agent.apply agent add = Ok ()))
    [
      Firmware.FR_O Store.Bit_backend;
      Firmware.FR_O Store.Array_backend;
      Firmware.FR_SD Store.Bit_backend;
      Firmware.FR_SB Store.Bit_backend;
    ]

(* --- Set_action relocation off a dead row ------------------------------- *)

let test_set_action_relocates () =
  let rules = Array.init 6 (fun i -> mk_rule (100 + i)) in
  let agent =
    Agent.of_rules ~kind:(Firmware.FR_O Store.Bit_backend) ~capacity:16 rules
  in
  let tcam = Agent.tcam agent in
  (* healthy row: the rewrite stays in place *)
  let a0 = Option.get (Tcam.addr_of tcam 103) in
  (match Agent.apply agent (Agent.Set_action { id = 103; action = Rule.Drop }) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "in-place rewrite failed: %s" e);
  check "healthy rewrite is in place" true
    (Tcam.addr_of tcam 103 = Some a0);
  (* condemned row: the agent must relocate through the scheduler *)
  let addr = Option.get (Tcam.addr_of tcam 102) in
  Agent.set_fault agent (Some (Fault.create ~stuck:[ addr ] ~seed:2 ()));
  ignore (Tcam.note_write_failure tcam ~addr);
  (match Agent.apply agent (Agent.Set_action { id = 102; action = Rule.Drop }) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "relocation failed: %s" e);
  let addr' = Option.get (Tcam.addr_of tcam 102) in
  check "moved off the dead row" true (addr' <> addr);
  check "landed on a live row" false (Tcam.is_dead tcam addr');
  check "action rewritten" true
    ((Option.get (Agent.rule agent 102)).Rule.action = Rule.Drop);
  check "consistent after relocation" true
    (Agent.verify_consistent agent = Ok ())

(* --- shard restart carries the dead map --------------------------------- *)

let test_shard_reset_carries_deadmap () =
  let rules = Array.init 8 (fun i -> mk_rule (100 + i)) in
  let sh = Shard.of_rules ~capacity:32 ~id:0 rules in
  let tcam = Agent.tcam (Shard.agent sh) in
  let dead = Option.get (Tcam.writable_free_in tcam ~lo:0 ~hi:31) in
  ignore (Tcam.note_write_failure tcam ~addr:dead);
  check_int "shard sees the dead row" 1 (Shard.dead_rows sh);
  Shard.reset sh rules;
  let tcam' = Agent.tcam (Shard.agent sh) in
  check "rebuilt agent remembers the dead row" true (Tcam.is_dead tcam' dead);
  check_int "dead count survives the restart" 1 (Shard.dead_rows sh);
  check "placement packed around it" true (Tcam.is_free tcam' dead);
  check "rebuilt table consistent" true
    (Agent.verify_consistent (Shard.agent sh) = Ok ())

(* --- fault spec strings (satellite: CLI serialisation) ------------------- *)

let spec_eq : Fault.spec Alcotest.testable =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Fault.spec_to_string s))
    ( = )

let test_spec_strings () =
  let full =
    {
      Fault.fail_prob = 0.5;
      stuck = [ 3; 9 ];
      max_failures = Some 4;
      slow_ms = 2.5;
    }
  in
  Alcotest.(check string)
    "printed form" "p=0.5,stuck=3+9,max=4,slow=2.5"
    (Fault.spec_to_string full);
  (match Fault.spec_of_string "slow=2.5,stuck=3+9,p=0.5,max=4" with
  | Ok s -> Alcotest.check spec_eq "key order is free" full s
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault.spec_of_string "" with
  | Ok s ->
      check "empty spec is the no-fault default" true
        (s.Fault.fail_prob = 0.0 && s.Fault.stuck = []
        && s.Fault.max_failures = None && s.Fault.slow_ms = 0.0)
  | Error e -> Alcotest.failf "empty spec rejected: %s" e);
  List.iter
    (fun bad ->
      match Fault.spec_of_string bad with
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" bad
      | Error _ -> ())
    [
      "p=1.5";
      "p=nope";
      "stuck=1+x";
      "max=-1";
      "slow=-0.5";
      "slow=inf";
      "turbo=1";
      "justakey";
      "p=0.5,p=0.2";
      "stuck=1,stuck=2";
      "slow=1,slow=1";
    ];
  Alcotest.check_raises "Fault.create rejects an infinite slow_ms"
    (Invalid_argument "Fault.create: slow_ms must be finite and >= 0")
    (fun () -> ignore (Fault.create ~slow_ms:infinity ~seed:1 ()))

let spec_gen =
  QCheck.Gen.(
    int_bound 100 >>= fun p ->
    list_size (int_bound 6) (int_bound 2000) >>= fun stuck ->
    opt (int_bound 50) >>= fun max_failures ->
    int_bound 40 >>= fun slow ->
    return
      {
        Fault.fail_prob = float_of_int p /. 100.0;
        stuck = List.sort_uniq Int.compare stuck;
        max_failures;
        slow_ms = float_of_int slow *. 0.25;
      })

let arb_spec = QCheck.make ~print:Fault.spec_to_string spec_gen

let prop_spec_round_trip =
  QCheck.Test.make ~name:"fault spec round-trips through its string form"
    ~count:300 arb_spec (fun s ->
      match Fault.spec_of_string (Fault.spec_to_string s) with
      | Ok s' -> s' = s
      | Error _ -> false)

let prop_spec_duplicate_keys_rejected =
  QCheck.Test.make ~name:"repeating any key is rejected" ~count:100
    (QCheck.make
       QCheck.Gen.(oneofl [ "p=0.1"; "stuck=1+2"; "max=3"; "slow=1.5" ]))
    (fun part ->
      match Fault.spec_of_string (part ^ "," ^ part) with
      | Error _ -> true
      | Ok _ -> false)

let suite =
  [
    ( "deadmap",
      [
        Alcotest.test_case "threshold and revival" `Quick test_deadmap_threshold;
        Alcotest.test_case "mark, intervals, copy" `Quick
          test_deadmap_mark_intervals;
        Alcotest.test_case "tcam hooks" `Quick test_tcam_hooks;
        Alcotest.test_case "placement packs around holes" `Quick
          test_place_packs_around_holes;
        Alcotest.test_case "all schedulers avoid dead rows" `Quick
          test_schedulers_avoid_dead_rows;
        Alcotest.test_case "probe drill" `Quick test_probe_dead;
        Alcotest.test_case "probed rows usable again" `Quick
          test_probe_revives_rows_for_schedulers;
        Alcotest.test_case "Set_action relocates off dead rows" `Quick
          test_set_action_relocates;
        Alcotest.test_case "shard reset carries the dead map" `Quick
          test_shard_reset_carries_deadmap;
        Alcotest.test_case "fault spec strings" `Quick test_spec_strings;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_spec_round_trip; prop_spec_duplicate_keys_rejected ] );
  ]
