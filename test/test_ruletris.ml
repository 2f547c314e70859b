open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok = function
  | Ok x -> x
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let test_fig3_optimal_length () =
  (* On the Fig. 3 instance the optimum is the same 4-op sequence the
     greedy finds. *)
  let graph, tcam = Fixtures.fig3_with_request () in
  let algo = Ruletris.make ~graph ~tcam in
  let ops = ok (algo.Algo.schedule_insert ~rule_id:9 ~deps:[ 5 ] ~dependents:[ 6 ]) in
  check_int "length" 4 (List.length ops);
  Tcam.apply_sequence tcam ops;
  check "invariant" true (Tcam.check_dag_order tcam graph = Ok ())

let test_prefers_fewer_moves_than_greedy_can () =
  (* A window where the nearest-chain metric misleads the greedy:
     occupant at the low address has a short chain bound, the one above
     has direct access to free space.  The DP must find the 2-op path. *)
  let tcam = Tcam.create ~size:6 () in
  (* 0:a 1:b 2:c 3..5 free;  a->b (a below b). *)
  List.iter (fun (id, addr) -> Tcam.write tcam ~rule_id:id ~addr)
    [ (0, 0); (1, 1); (2, 2) ];
  let graph = Graph.create () in
  List.iter (Graph.add_node graph) [ 0; 1; 2 ];
  Graph.add_edge graph 0 1;
  (* Insert f below entry 0: must displace 0; 0's window is (addr, 1];
     displacing 1 then has the free top.  Optimal = 3 inserts. *)
  Graph.add_node graph 9;
  Graph.add_edge graph 9 0;
  let algo = Ruletris.make ~graph ~tcam in
  let ops = ok (algo.Algo.schedule_insert ~rule_id:9 ~deps:[ 0 ] ~dependents:[] ) in
  Tcam.apply_sequence tcam ops;
  check "invariant" true (Tcam.check_dag_order tcam graph = Ok ());
  check_int "optimal 3 ops" 3 (List.length ops)

let test_direct_free_slot () =
  let tcam = Tcam.create ~size:4 () in
  Tcam.write tcam ~rule_id:0 ~addr:0;
  let graph = Graph.create () in
  Graph.add_node graph 0;
  Graph.add_node graph 9;
  let algo = Ruletris.make ~graph ~tcam in
  let ops = ok (algo.Algo.schedule_insert ~rule_id:9 ~deps:[] ~dependents:[ 0 ]) in
  check_int "one op" 1 (List.length ops)

let test_min_cost_hook () =
  let graph, tcam = Fixtures.fig3 () in
  (* Freeing 0x6 costs moving entry 2 to free space: 1 move; +1 for the new
     entry = 2 writes. *)
  check "cost window {0x6}" true
    (Ruletris.min_cost_in_window ~graph tcam ~lo:0x6 ~hi:0x6 = Some 2);
  (* A window containing free space costs just the new write. *)
  check "free window" true
    (Ruletris.min_cost_in_window ~graph tcam ~lo:0x6 ~hi:0x9 = Some 1)

let test_unreachable () =
  (* Full TCAM: no sequence exists. *)
  let tcam = Tcam.create ~size:2 () in
  Tcam.write tcam ~rule_id:0 ~addr:0;
  Tcam.write tcam ~rule_id:1 ~addr:1;
  let graph = Graph.create () in
  List.iter (Graph.add_node graph) [ 0; 1; 9 ];
  let algo = Ruletris.make ~graph ~tcam in
  check "no room" true
    (Result.is_error (algo.Algo.schedule_insert ~rule_id:9 ~deps:[] ~dependents:[]))

let test_delete () =
  let graph, tcam = Fixtures.fig3 () in
  let algo = Ruletris.make ~graph ~tcam in
  let ops = ok (algo.Algo.schedule_delete ~rule_id:4) in
  check_int "one op" 1 (List.length ops);
  Tcam.apply_sequence tcam ops;
  check "gone" true (Tcam.addr_of tcam 4 = None)

let test_optimality_vs_greedy_random () =
  (* DP length <= greedy length on random instances (optimality witness). *)
  let rng = Rng.create ~seed:123 in
  for _ = 1 to 30 do
    let graph, tcam = Fixtures.random_scenario rng ~size:24 ~k:18 ~edge_prob:0.1 in
    Graph.add_node graph 99;
    (* Random satisfiable request: below some entry. *)
    let ids = Tcam.used_ids tcam in
    let dep = List.nth ids (Rng.int rng (List.length ids)) in
    Graph.add_edge graph 99 dep;
    let greedy =
      Greedy.algo (Greedy.create ~backend:Store.Array_backend ~graph ~tcam ())
    in
    let dp = Ruletris.make ~graph ~tcam in
    let g_ops = ok (greedy.Algo.schedule_insert ~rule_id:99 ~deps:[ dep ] ~dependents:[]) in
    let d_ops = ok (dp.Algo.schedule_insert ~rule_id:99 ~deps:[ dep ] ~dependents:[]) in
    check "dp <= greedy" true (List.length d_ops <= List.length g_ops);
    (* Both sequences are valid on their own copy. *)
    let t1 = Tcam.copy tcam in
    Tcam.apply_sequence t1 g_ops;
    check "greedy valid" true (Tcam.check_dag_order t1 graph = Ok ());
    let t2 = Tcam.copy tcam in
    Tcam.apply_sequence t2 d_ops;
    check "dp valid" true (Tcam.check_dag_order t2 graph = Ok ())
  done

let suite =
  [
    ( "ruletris",
      [
        Alcotest.test_case "fig3 optimal" `Quick test_fig3_optimal_length;
        Alcotest.test_case "forced chain" `Quick test_prefers_fewer_moves_than_greedy_can;
        Alcotest.test_case "direct free slot" `Quick test_direct_free_slot;
        Alcotest.test_case "min-cost hook" `Quick test_min_cost_hook;
        Alcotest.test_case "unreachable" `Quick test_unreachable;
        Alcotest.test_case "delete" `Quick test_delete;
        Alcotest.test_case "optimality vs greedy" `Quick test_optimality_vs_greedy_random;
      ] );
  ]
