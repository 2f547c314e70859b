open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_counts_and_ids () =
  let rng = Rng.create ~seed:1 in
  let us = Updates.generate rng ~live:[ 0; 1; 2 ] ~count:10 ~with_deletes:false ~id_base:100 in
  check_int "count" 10 (List.length us);
  List.iteri
    (fun i u ->
      match u with
      | Updates.Insert { id; anchor } ->
          check_int "sequential ids" (100 + i) id;
          check "has anchor" true (anchor <> None)
      | Updates.Delete _ -> Alcotest.fail "no deletes expected")
    us

let test_alternation () =
  let rng = Rng.create ~seed:2 in
  let us = Updates.generate rng ~live:[ 0; 1; 2; 3 ] ~count:10 ~with_deletes:true ~id_base:50 in
  List.iteri
    (fun i u ->
      match (i mod 2, u) with
      | 0, Updates.Insert _ -> ()
      | 1, Updates.Delete _ -> ()
      | _ -> Alcotest.fail "expected strict insert/delete alternation")
    us

let test_deletes_target_live_entries () =
  (* Replay bookkeeping: a delete must always name a currently-live id and
     anchors must be live too. *)
  let rng = Rng.create ~seed:3 in
  let live0 = [ 0; 1; 2; 3; 4 ] in
  let us = Updates.generate rng ~live:live0 ~count:200 ~with_deletes:true ~id_base:10 in
  let live = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace live i ()) live0;
  List.iter
    (fun u ->
      match u with
      | Updates.Insert { id; anchor } ->
          (match anchor with
          | Some (x, y) ->
              check "anchor x live" true (Hashtbl.mem live x);
              check "anchor y live" true (Hashtbl.mem live y);
              check "anchors distinct" true (x <> y)
          | None -> ());
          Hashtbl.replace live id ()
      | Updates.Delete { id } ->
          check "delete live" true (Hashtbl.mem live id);
          Hashtbl.remove live id)
    us

let test_resolve_orientation_by_reachability () =
  let g = Graph.create () in
  Graph.add_edge g 1 2;
  (* 1 depends on 2 *)
  let tcam = Tcam.create ~size:8 () in
  Tcam.write tcam ~rule_id:1 ~addr:0;
  Tcam.write tcam ~rule_id:2 ~addr:5;
  let u = Updates.Insert { id = 9; anchor = Some (2, 1) } in
  (match Updates.resolve g tcam u with
  | Updates.R_insert { id; deps; dependents } ->
      check_int "id" 9 id;
      Alcotest.(check (list int)) "deps" [ 2 ] deps;
      Alcotest.(check (list int)) "dependents" [ 1 ] dependents
  | Updates.R_delete _ -> Alcotest.fail "expected insert");
  (* Unrelated anchors: orientation by address. *)
  let g2 = Graph.create () in
  Graph.add_node g2 1;
  Graph.add_node g2 2;
  match Updates.resolve g2 tcam (Updates.Insert { id = 9; anchor = Some (2, 1) }) with
  | Updates.R_insert { deps; dependents; _ } ->
      Alcotest.(check (list int)) "addr-high is dep" [ 2 ] deps;
      Alcotest.(check (list int)) "addr-low is dependent" [ 1 ] dependents
  | Updates.R_delete _ -> Alcotest.fail "expected insert"

let test_resolve_missing_anchor_rejected () =
  let g = Graph.create () in
  let tcam = Tcam.create ~size:4 () in
  (* Either anchor may be reported first (evaluation order). *)
  check "missing anchor raises" true
    (match Updates.resolve g tcam (Updates.Insert { id = 1; anchor = Some (7, 8) }) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_apply_graph () =
  let g = Graph.create () in
  Graph.add_node g 1;
  Graph.add_node g 2;
  Updates.apply_graph g (Updates.R_insert { id = 9; deps = [ 2 ]; dependents = [ 1 ] });
  check "node added" true (Graph.mem_node g 9);
  check "edge to dep" true (Graph.mem_edge g 9 2);
  check "edge from dependent" true (Graph.mem_edge g 1 9);
  Updates.apply_graph g (Updates.R_delete { id = 9 });
  check "node removed" false (Graph.mem_node g 9);
  check_int "edges cleaned" 0 (Graph.n_edges g)

let test_stream_replay_is_layout_independent () =
  (* The same stream must be executable on two different layouts. *)
  let table = Dataset.build_table Dataset.ACL5 ~seed:21 ~n:200 in
  let rng = Rng.create ~seed:5 in
  let stream =
    Updates.generate rng ~live:(Array.to_list table.Dataset.order) ~count:100
      ~with_deletes:true ~id_base:1000
  in
  List.iter
    (fun kind ->
      let run = Firmware.create ~check_invariant:true kind ~table ~tcam_size:400 () in
      let failed = Firmware.exec_all run stream in
      check_int (Firmware.algo_kind_name kind ^ " no failures") 0 failed)
    [ Firmware.FR_O Store.Bit_backend; Firmware.FR_SB Store.Bit_backend ]

let suite =
  [
    ( "updates",
      [
        Alcotest.test_case "counts & ids" `Quick test_counts_and_ids;
        Alcotest.test_case "insert/delete alternation" `Quick test_alternation;
        Alcotest.test_case "deletes target live" `Quick test_deletes_target_live_entries;
        Alcotest.test_case "resolve orientation" `Quick test_resolve_orientation_by_reachability;
        Alcotest.test_case "resolve missing anchor" `Quick test_resolve_missing_anchor_rejected;
        Alcotest.test_case "apply_graph" `Quick test_apply_graph;
        Alcotest.test_case "replay across layouts" `Quick test_stream_replay_is_layout_independent;
      ] );
  ]
