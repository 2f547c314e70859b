open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok = function
  | Ok x -> x
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let op_list = Alcotest.testable Op.pp Op.equal

let test_fig3_sequence_all_backends () =
  List.iter
    (fun backend ->
      let graph, tcam = Fixtures.fig3_with_request () in
      let st = Greedy.create ~backend ~graph ~tcam () in
      let algo = Greedy.algo st in
      let ops = ok (algo.Algo.schedule_insert ~rule_id:9 ~deps:[ 5 ] ~dependents:[ 6 ]) in
      (* Application order = reverse of the paper's discovery order
         U = (I,9,0x3),(I,5,0x4),(I,4,0x6),(I,2,0x9). *)
      Alcotest.(check (list op_list))
        (Store.backend_to_string backend)
        [
          Op.insert ~rule_id:2 ~addr:0x9;
          Op.insert ~rule_id:4 ~addr:0x6;
          Op.insert ~rule_id:5 ~addr:0x4;
          Op.insert ~rule_id:9 ~addr:0x3;
        ]
        ops;
      Tcam.apply_sequence tcam ops;
      algo.Algo.after_apply ops;
      check "invariant" true (Tcam.check_dag_order tcam graph = Ok ());
      check "9 at 0x3" true (Tcam.read tcam 0x3 = Tcam.Used 9))
    Store.all_backends

let test_direct_free () =
  let tcam = Tcam.create ~size:4 in
  Tcam.write tcam ~rule_id:0 ~addr:0;
  let graph = Graph.create () in
  Graph.add_node graph 0;
  Graph.add_node graph 9;
  let st = Greedy.create ~graph ~tcam () in
  let algo = Greedy.algo st in
  let ops = ok (algo.Algo.schedule_insert ~rule_id:9 ~deps:[] ~dependents:[ 0 ]) in
  (* The lowest free address wins the metric-0 tie (nearest the entries). *)
  Alcotest.(check (list op_list)) "single op" [ Op.insert ~rule_id:9 ~addr:1 ] ops

let test_insert_between_adjacent () =
  (* Dependent directly below dependency: the window is exactly the
     dependency's slot, which must be displaced. *)
  let tcam = Tcam.create ~size:4 in
  Tcam.write tcam ~rule_id:0 ~addr:0;
  Tcam.write tcam ~rule_id:1 ~addr:1;
  let graph = Graph.create () in
  Graph.add_edge graph 0 1;
  Graph.add_node graph 9;
  Graph.add_edge graph 9 1;
  Graph.add_edge graph 0 9;
  let st = Greedy.create ~graph ~tcam () in
  let algo = Greedy.algo st in
  let ops = ok (algo.Algo.schedule_insert ~rule_id:9 ~deps:[ 1 ] ~dependents:[ 0 ]) in
  Tcam.apply_sequence tcam ops;
  algo.Algo.after_apply ops;
  check "invariant" true (Tcam.check_dag_order tcam graph = Ok ());
  check_int "two ops" 2 (List.length ops);
  check "9 took 1's slot" true (Tcam.read tcam 1 = Tcam.Used 9)

let test_window_errors () =
  let graph, tcam = Fixtures.fig3_with_request () in
  let algo = Greedy.algo (Greedy.create ~graph ~tcam ()) in
  check "contradictory window" true
    (Result.is_error (algo.Algo.schedule_insert ~rule_id:10 ~deps:[ 6 ] ~dependents:[ 5 ]));
  check "duplicate id" true
    (Result.is_error (algo.Algo.schedule_insert ~rule_id:5 ~deps:[] ~dependents:[]));
  check "unknown constraint" true
    (Result.is_error (algo.Algo.schedule_insert ~rule_id:10 ~deps:[ 404 ] ~dependents:[]))

let test_delete_then_reuse () =
  let graph, tcam = Fixtures.fig3_with_request () in
  let st = Greedy.create ~graph ~tcam () in
  let algo = Greedy.algo st in
  (* Delete entry 4 (0x4): zero-movement erase. *)
  let ops = ok (algo.Algo.schedule_delete ~rule_id:4) in
  check_int "erase only" 1 (List.length ops);
  Tcam.apply_sequence tcam ops;
  Graph.remove_node graph 4;
  algo.Algo.after_apply ops;
  (* Now insert 9 between 6 and 5 again: 5 can fall into the fresh hole at
     0x4, giving the shorter 2-op chain. *)
  let ops = ok (algo.Algo.schedule_insert ~rule_id:9 ~deps:[ 5 ] ~dependents:[ 6 ]) in
  Alcotest.(check (list op_list)) "hole reused"
    [ Op.insert ~rule_id:5 ~addr:0x4; Op.insert ~rule_id:9 ~addr:0x3 ]
    ops;
  Tcam.apply_sequence tcam ops;
  algo.Algo.after_apply ops;
  check "invariant" true (Tcam.check_dag_order tcam graph = Ok ())

let test_stores_stay_truthful_across_updates () =
  (* After a batch of random inserts/deletes, the maintained stores equal a
     from-scratch recomputation. *)
  let rng = Rng.create ~seed:321 in
  List.iter
    (fun backend ->
      let graph, tcam = Fixtures.random_scenario rng ~size:100 ~k:25 ~edge_prob:0.07 in
      let st = Greedy.create ~backend ~graph ~tcam () in
      let algo = Greedy.algo st in
      let next = ref 1000 in
      for _ = 1 to 40 do
        let ids = Tcam.used_ids tcam in
        if Rng.chance rng 0.3 && List.length ids > 5 then begin
          let id = List.nth ids (Rng.int rng (List.length ids)) in
          let ops = ok (algo.Algo.schedule_delete ~rule_id:id) in
          Tcam.apply_sequence tcam ops;
          Graph.remove_node graph id;
          algo.Algo.after_apply ops
        end
        else begin
          let id = !next in
          incr next;
          let dep = List.nth ids (Rng.int rng (List.length ids)) in
          Graph.add_node graph id;
          Graph.add_edge graph id dep;
          let ops = ok (algo.Algo.schedule_insert ~rule_id:id ~deps:[ dep ] ~dependents:[]) in
          Tcam.apply_sequence tcam ops;
          algo.Algo.after_apply ops
        end;
        check "invariant holds" true (Tcam.check_dag_order tcam graph = Ok ())
      done;
      let snapshot = Store.snapshot (Greedy.store st) in
      Array.iteri
        (fun a v ->
          check_int
            (Printf.sprintf "%s truthful at 0x%x" (Store.backend_to_string backend) a)
            (Metric.compute Dir.Up graph tcam ~addr:a)
            v)
        snapshot)
    Store.all_backends

let test_chain_bounded_by_metric () =
  (* The chain the greedy emits is never longer than the initial window's
     minimum metric + 1 (it follows strictly decreasing metrics). *)
  let rng = Rng.create ~seed:55 in
  for _ = 1 to 20 do
    let graph, tcam = Fixtures.random_scenario rng ~size:30 ~k:22 ~edge_prob:0.1 in
    let st = Greedy.create ~backend:Store.Array_backend ~graph ~tcam () in
    let algo = Greedy.algo st in
    let ids = Tcam.used_ids tcam in
    let dep = List.nth ids (Rng.int rng (List.length ids)) in
    Graph.add_node graph 777;
    Graph.add_edge graph 777 dep;
    let lo = 0 and hi = Option.get (Tcam.addr_of tcam dep) in
    (match Store.min_in (Greedy.store st) ~lo ~hi with
    | None -> ()
    | Some (_, m) ->
        let ops = ok (algo.Algo.schedule_insert ~rule_id:777 ~deps:[ dep ] ~dependents:[]) in
        check "length <= M+1" true (List.length ops <= m + 1));
    Graph.remove_node graph 777
  done

let suite =
  [
    ( "fastrule-greedy",
      [
        Alcotest.test_case "fig3 exact sequence (all backends)" `Quick
          test_fig3_sequence_all_backends;
        Alcotest.test_case "direct free slot" `Quick test_direct_free;
        Alcotest.test_case "adjacent window" `Quick test_insert_between_adjacent;
        Alcotest.test_case "window errors" `Quick test_window_errors;
        Alcotest.test_case "delete then reuse hole" `Quick test_delete_then_reuse;
        Alcotest.test_case "stores stay truthful" `Quick test_stores_stay_truthful_across_updates;
        Alcotest.test_case "chain bounded by metric" `Quick test_chain_bounded_by_metric;
      ] );
  ]
