open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok = function
  | Ok x -> x
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* 6 entries in a 12-slot separated TCAM: bottom 0,1,2 at 0..2 and top
   3,4,5 at 9..11, middle 3..8 free.  Chain edges 0 -> 1 -> ... -> 5 give a
   fully ordered table (ascending addresses = ascending position). *)
let setup ?(delete_mode = Separated.Dirty) ?(backend = Store.Bit_backend) () =
  let order = [| 0; 1; 2; 3; 4; 5 |] in
  let tcam = Layout.place Layout.Separated ~tcam_size:12 ~order in
  let graph = Graph.create () in
  Array.iter (Graph.add_node graph) order;
  for i = 0 to 4 do
    Graph.add_edge graph i (i + 1)
  done;
  let st = Separated.create ~backend ~delete_mode ~graph ~tcam () in
  (graph, tcam, st, Separated.algo st)

let exec graph tcam (algo : Algo.t) u =
  match u with
  | `Ins (id, deps, dependents) ->
      Graph.add_node graph id;
      List.iter (fun v -> Graph.add_edge graph id v) deps;
      List.iter (fun x -> Graph.add_edge graph x id) dependents;
      let ops = ok (algo.Algo.schedule_insert ~rule_id:id ~deps ~dependents) in
      Tcam.apply_sequence tcam ops;
      algo.Algo.after_apply ops;
      ops
  | `Del id ->
      let ops = ok (algo.Algo.schedule_delete ~rule_id:id) in
      Tcam.apply_sequence tcam ops;
      Graph.remove_node graph id;
      algo.Algo.after_apply ops;
      ops

let test_straddling_goes_middle () =
  let graph, tcam, st, algo = setup () in
  (* Between bottom entry 2 and top entry 3: straddles, zero movements.
     Counts are equal (3/3) so the balance rule picks the top side. *)
  let ops = exec graph tcam algo (`Ins (9, [ 3 ], [ 2 ])) in
  check_int "one op" 1 (List.length ops);
  let r = Separated.regions st in
  check "invariant" true (Tcam.check_dag_order tcam graph = Ok ());
  check_int "joined top" 4 r.Layout.top_count;
  check_int "top edge moved" 7 r.Layout.top_next;
  check "placed at old top edge" true (Tcam.read tcam 8 = Tcam.Used 9)

let test_balance_rule_prefers_smaller_side () =
  let graph, tcam, st, algo = setup () in
  ignore (exec graph tcam algo (`Ins (9, [ 3 ], [ 2 ])));
  (* Top now has 4, bottom 3: the next straddling insert goes bottom. *)
  let _ = exec graph tcam algo (`Ins (10, [ 9 ], [ 2 ])) in
  let r = Separated.regions st in
  check_int "joined bottom" 4 r.Layout.bottom_count;
  check_int "bottom edge moved" 4 r.Layout.bottom_next;
  check "placed at old bottom edge" true (Tcam.read tcam 3 = Tcam.Used 10);
  check "invariant" true (Tcam.check_dag_order tcam graph = Ok ())

let test_bottom_region_chain () =
  let graph, tcam, st, algo = setup () in
  (* Insert below entry 1 (addr 1, inside bottom): the chain displaces 1
     then 2 into the middle edge — clamped at one spill slot. *)
  let ops = exec graph tcam algo (`Ins (9, [ 1 ], [ 0 ])) in
  check_int "three ops" 3 (List.length ops);
  check "invariant" true (Tcam.check_dag_order tcam graph = Ok ());
  let r = Separated.regions st in
  check_int "bottom grew" 4 r.Layout.bottom_count;
  check_int "bottom edge" 4 r.Layout.bottom_next;
  check "2 spilled to edge" true (Tcam.read tcam 3 = Tcam.Used 2)

let test_top_region_chain_descends () =
  let graph, tcam, st, algo = setup () in
  (* Insert above entry 4 (addr 10, inside top): downward chain, spilling
     entry 3 one slot into the middle. *)
  let ops = exec graph tcam algo (`Ins (9, [ 5 ], [ 4 ])) in
  check_int "three ops" 3 (List.length ops);
  check "invariant" true (Tcam.check_dag_order tcam graph = Ok ());
  let r = Separated.regions st in
  check_int "top grew" 4 r.Layout.top_count;
  check_int "top edge" 7 r.Layout.top_next;
  check "3 spilled to edge" true (Tcam.read tcam 8 = Tcam.Used 3)

let test_dirty_delete () =
  let graph, tcam, st, algo = setup ~delete_mode:Separated.Dirty () in
  let ops = exec graph tcam algo (`Del 1) in
  check_int "one op" 1 (List.length ops);
  check "hole inside bottom" true (Tcam.read tcam 1 = Tcam.Free);
  let r = Separated.regions st in
  check_int "count dropped" 2 r.Layout.bottom_count;
  check_int "edge unchanged" 3 r.Layout.bottom_next

let test_balance_delete_bottom () =
  let graph, tcam, st, algo = setup ~delete_mode:Separated.Balance () in
  (* Delete entry 0 at the very bottom: the hole must migrate to the
     region's middle edge.  Entry 1 depends on 2 above, but moving any
     entry down is always legal here; the farthest legal mover is 2. *)
  let ops = exec graph tcam algo (`Del 0) in
  check "invariant" true (Tcam.check_dag_order tcam graph = Ok ());
  let r = Separated.regions st in
  check_int "count dropped" 2 r.Layout.bottom_count;
  check_int "edge shrank" 2 r.Layout.bottom_next;
  check "edge slot returned to pool" true (Tcam.read tcam 2 = Tcam.Free);
  check "extra movement happened" true (List.length ops >= 2)

let test_balance_delete_top () =
  let graph, tcam, st, algo = setup ~delete_mode:Separated.Balance () in
  let ops = exec graph tcam algo (`Del 5) in
  check "invariant" true (Tcam.check_dag_order tcam graph = Ok ());
  let r = Separated.regions st in
  check_int "top count dropped" 2 r.Layout.top_count;
  check_int "top edge grew" 9 r.Layout.top_next;
  check "slot returned to pool" true (Tcam.read tcam 9 = Tcam.Free);
  check "movement happened" true (List.length ops >= 2)

(* Entry 3 sits on a dead row at 0x9, so the hole a balance delete of 5
   opens at 0xb can migrate down to 0xa but no further.  The top edge must
   not move past the stuck entry: the middle pool stays all free (once
   the row revived, a straddling insert would land on it). *)
let test_balance_delete_stops_at_dead_row () =
  let graph, tcam, st, algo = setup ~delete_mode:Separated.Balance () in
  ignore (Tcam.note_write_failure tcam ~addr:9);
  ignore (exec graph tcam algo (`Del 5));
  let r = Separated.regions st in
  check_int "top edge kept" 8 r.Layout.top_next;
  check_int "top count" 2 r.Layout.top_count;
  for a = r.Layout.bottom_next to r.Layout.top_next do
    check (Printf.sprintf "middle slot 0x%x free" a) true (Tcam.is_free tcam a)
  done;
  check "invariant" true (Tcam.check_dag_order tcam graph = Ok ())

let test_balance_delete_at_edge_is_cheap () =
  let graph, tcam, _st, algo = setup ~delete_mode:Separated.Balance () in
  (* Deleting the entry already at the bottom edge costs no movements. *)
  let ops = exec graph tcam algo (`Del 2) in
  check_int "erase only" 1 (List.length ops)

let test_middle_exhaustion_fallback () =
  (* Fill the middle, then keep inserting: the scheduler must degrade
     gracefully and stay correct. *)
  let graph, tcam, _st, algo = setup () in
  let prev = ref 2 in
  for id = 20 to 25 do
    ignore (exec graph tcam algo (`Ins (id, [ 3 ], [ !prev ])));
    prev := id
  done;
  check "invariant after fill" true (Tcam.check_dag_order tcam graph = Ok ());
  check_int "table full" 12 (Tcam.used_count tcam)

let test_random_mixed_stream_stays_valid () =
  let rng = Rng.create ~seed:888 in
  List.iter
    (fun delete_mode ->
      let graph, tcam, st, algo = setup ~delete_mode () in
      let next = ref 100 in
      for _ = 1 to 60 do
        let ids = Tcam.used_ids tcam in
        let n_ids = List.length ids in
        if (Rng.chance rng 0.45 && n_ids > 2) || Tcam.free_count tcam = 0 then
          ignore (exec graph tcam algo (`Del (List.nth ids (Rng.int rng n_ids))))
        else begin
          let id = !next in
          incr next;
          let x = List.nth ids (Rng.int rng n_ids) in
          let y = List.nth ids (Rng.int rng n_ids) in
          let deps, dependents =
            if x = y then ([ x ], [])
            else if Topo.reachable graph x y then ([ y ], [ x ])
            else if Topo.reachable graph y x then ([ x ], [ y ])
            else
              let ax = Option.get (Tcam.addr_of tcam x)
              and ay = Option.get (Tcam.addr_of tcam y) in
              if ax < ay then ([ y ], [ x ]) else ([ x ], [ y ])
          in
          ignore (exec graph tcam algo (`Ins (id, deps, dependents)))
        end;
        check "invariant" true (Tcam.check_dag_order tcam graph = Ok ());
        (* Both maintained metric stores must stay truthful throughout. *)
        for a = 0 to Tcam.size tcam - 1 do
          check "up store truthful" true
            (Store.get (Separated.up_store st) a
            = Metric.compute Dir.Up graph tcam ~addr:a);
          check "down store truthful" true
            (Store.get (Separated.down_store st) a
            = Metric.compute Dir.Down graph tcam ~addr:a)
        done
      done)
    [ Separated.Dirty; Separated.Balance ]

let suite =
  [
    ( "separated",
      [
        Alcotest.test_case "straddling goes middle" `Quick test_straddling_goes_middle;
        Alcotest.test_case "balance rule picks smaller side" `Quick
          test_balance_rule_prefers_smaller_side;
        Alcotest.test_case "bottom chain clamps at edge" `Quick test_bottom_region_chain;
        Alcotest.test_case "top chain descends" `Quick test_top_region_chain_descends;
        Alcotest.test_case "dirty delete" `Quick test_dirty_delete;
        Alcotest.test_case "balance delete bottom" `Quick test_balance_delete_bottom;
        Alcotest.test_case "balance delete top" `Quick test_balance_delete_top;
        Alcotest.test_case "balance delete at edge" `Quick test_balance_delete_at_edge_is_cheap;
        Alcotest.test_case "balance delete stops at dead row" `Quick
          test_balance_delete_stops_at_dead_row;
        Alcotest.test_case "middle exhaustion fallback" `Quick test_middle_exhaustion_fallback;
        Alcotest.test_case "random mixed stream" `Quick test_random_mixed_stream_stays_valid;
      ] );
  ]
