open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok = function
  | Ok x -> x
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* Three entries packed at the bottom of an 8-slot TCAM. *)
let setup () =
  let tcam = Tcam.create ~size:8 () in
  List.iter (fun (id, a) -> Tcam.write tcam ~rule_id:id ~addr:a)
    [ (0, 0); (1, 1); (2, 2) ];
  Tcam.reset_counters tcam;
  (tcam, Naive.create ~tcam)

let test_insert_on_top () =
  let tcam, st = setup () in
  let algo = Naive.algo st in
  (* No constraints: lands above everything, one op. *)
  let ops = ok (algo.Algo.schedule_insert ~rule_id:9 ~deps:[] ~dependents:[ 2 ]) in
  check_int "single op" 1 (List.length ops);
  Tcam.apply_sequence tcam ops;
  algo.Algo.after_apply ops;
  check "placed at 3" true (Tcam.read tcam 3 = Tcam.Used 9);
  check "priority assigned" true (Naive.priority_of st 9 <> None)

let test_insert_shifts_up () =
  let tcam, st = setup () in
  let algo = Naive.algo st in
  (* Must sit below entry 1 and above entry 0: displaces 1 and 2 upward. *)
  let ops = ok (algo.Algo.schedule_insert ~rule_id:9 ~deps:[ 1 ] ~dependents:[ 0 ]) in
  check_int "three ops" 3 (List.length ops);
  Tcam.apply_sequence tcam ops;
  algo.Algo.after_apply ops;
  check "9 at 1" true (Tcam.read tcam 1 = Tcam.Used 9);
  check "1 at 2" true (Tcam.read tcam 2 = Tcam.Used 1);
  check "2 at 3" true (Tcam.read tcam 3 = Tcam.Used 2);
  (* Priority order respected. *)
  let p = Naive.priority_of st in
  check "prio between" true
    (Option.get (p 9) > Option.get (p 0) && Option.get (p 9) < Option.get (p 1))

let test_insert_uses_nearest_hole () =
  let tcam, st = setup () in
  let algo = Naive.algo st in
  (* Free a hole below: delete entry 0, then insert below 2; the shift
     should go down into the hole (1 move) rather than up (1 move) — tie
     goes up, so force a clear case: insert below entry 1 after freeing 0. *)
  let del = ok (algo.Algo.schedule_delete ~rule_id:0) in
  Tcam.apply_sequence tcam del;
  algo.Algo.after_apply del;
  let ops = ok (algo.Algo.schedule_insert ~rule_id:9 ~deps:[ 1 ] ~dependents:[] ) in
  Tcam.apply_sequence tcam ops;
  algo.Algo.after_apply ops;
  (* 9 must end up below 1 wherever the shift went. *)
  let a9 = Option.get (Tcam.addr_of tcam 9) in
  let a1 = Option.get (Tcam.addr_of tcam 1) in
  check "below dep" true (a9 < a1);
  check "cheap: at most 2 ops" true (List.length ops <= 2)

let test_delete () =
  let tcam, st = setup () in
  let algo = Naive.algo st in
  let ops = ok (algo.Algo.schedule_delete ~rule_id:1) in
  check_int "one op" 1 (List.length ops);
  Tcam.apply_sequence tcam ops;
  algo.Algo.after_apply ops;
  check "erased" true (Tcam.read tcam 1 = Tcam.Free);
  check "priority dropped" true (Naive.priority_of st 1 = None)

let test_renumber_on_gap_exhaustion () =
  let tcam = Tcam.create ~size:64 () in
  Tcam.write tcam ~rule_id:0 ~addr:0;
  Tcam.write tcam ~rule_id:1 ~addr:1;
  let st = Naive.create ~tcam in
  let algo = Naive.algo st in
  (* Repeatedly insert between the two newest neighbours: midpoints shrink
     the gap to nothing and force a renumbering pass. *)
  let below = ref 0 and above = ref 1 in
  for id = 2 to 30 do
    let ops =
      ok (algo.Algo.schedule_insert ~rule_id:id ~deps:[ !above ] ~dependents:[ !below ])
    in
    Tcam.apply_sequence tcam ops;
    algo.Algo.after_apply ops;
    below := id
  done;
  check "renumbered at least once" true (Naive.renumber_count st > 0);
  (* Order still consistent: every inserted id sits between its bounds. *)
  let a id = Option.get (Tcam.addr_of tcam id) in
  check "last below above" true (a 30 < a 1 && a 30 > a 0)

let test_full_table_error () =
  let tcam = Tcam.create ~size:2 () in
  Tcam.write tcam ~rule_id:0 ~addr:0;
  Tcam.write tcam ~rule_id:1 ~addr:1;
  let st = Naive.create ~tcam in
  let algo = Naive.algo st in
  check "full" true
    (Result.is_error (algo.Algo.schedule_insert ~rule_id:9 ~deps:[] ~dependents:[]))

let test_errors () =
  let _tcam, st = setup () in
  let algo = Naive.algo st in
  check "duplicate id" true
    (Result.is_error (algo.Algo.schedule_insert ~rule_id:1 ~deps:[] ~dependents:[]));
  check "missing constraint" true
    (Result.is_error (algo.Algo.schedule_insert ~rule_id:9 ~deps:[ 77 ] ~dependents:[]));
  check "delete missing" true (Result.is_error (algo.Algo.schedule_delete ~rule_id:42))

let suite =
  [
    ( "naive",
      [
        Alcotest.test_case "insert on top" `Quick test_insert_on_top;
        Alcotest.test_case "insert shifts up" `Quick test_insert_shifts_up;
        Alcotest.test_case "insert uses nearest hole" `Quick test_insert_uses_nearest_hole;
        Alcotest.test_case "delete" `Quick test_delete;
        Alcotest.test_case "renumber on gap exhaustion" `Quick test_renumber_on_gap_exhaustion;
        Alcotest.test_case "full table error" `Quick test_full_table_error;
        Alcotest.test_case "request errors" `Quick test_errors;
      ] );
  ]
