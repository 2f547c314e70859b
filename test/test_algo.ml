open Fastrule

let check = Alcotest.(check bool)

let setup () =
  let tcam = Tcam.create ~size:10 () in
  List.iter (fun (id, a) -> Tcam.write tcam ~rule_id:id ~addr:a)
    [ (1, 2); (2, 5); (3, 8) ];
  tcam

let test_window_both_bounds () =
  let tcam = setup () in
  check "between 1 and 2" true
    (Algo.insert_window tcam ~deps:[ 2 ] ~dependents:[ 1 ] = Ok (2, 5))

let test_window_defaults () =
  let tcam = setup () in
  check "no dependents" true
    (Algo.insert_window tcam ~deps:[ 1 ] ~dependents:[] = Ok (-1, 2));
  check "no deps: hi is the size sentinel" true
    (Algo.insert_window tcam ~deps:[] ~dependents:[ 3 ] = Ok (8, 10));
  check "unconstrained" true
    (Algo.insert_window tcam ~deps:[] ~dependents:[] = Ok (-1, 10))

let test_window_multiple_constraints () =
  let tcam = setup () in
  (* lo = max of dependents, hi = min of deps. *)
  check "tightest pair" true
    (Algo.insert_window tcam ~deps:[ 3; 2 ] ~dependents:[ 1 ] = Ok (2, 5))

let test_window_errors () =
  let tcam = setup () in
  check "missing entry" true
    (Result.is_error (Algo.insert_window tcam ~deps:[ 42 ] ~dependents:[]));
  check "contradiction" true
    (Result.is_error (Algo.insert_window tcam ~deps:[ 1 ] ~dependents:[ 3 ]));
  check "same entry both sides" true
    (Result.is_error (Algo.insert_window tcam ~deps:[ 2 ] ~dependents:[ 2 ]))

let test_fresh_check () =
  let tcam = setup () in
  check "fresh ok" true (Algo.fresh_request_check tcam ~rule_id:9 = Ok ());
  check "duplicate" true
    (Result.is_error (Algo.fresh_request_check tcam ~rule_id:2))

let suite =
  [
    ( "algo-window",
      [
        Alcotest.test_case "both bounds" `Quick test_window_both_bounds;
        Alcotest.test_case "defaults" `Quick test_window_defaults;
        Alcotest.test_case "multiple constraints" `Quick test_window_multiple_constraints;
        Alcotest.test_case "errors" `Quick test_window_errors;
        Alcotest.test_case "fresh check" `Quick test_fresh_check;
      ] );
  ]
