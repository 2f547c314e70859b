open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let layouts = [ Layout.Original; Layout.Interleaved 4; Layout.Interleaved 1; Layout.Separated ]

let scattered_tcam rng ~size ~k =
  let tcam = Tcam.create ~size () in
  let addrs = Array.init size Fun.id in
  Rng.shuffle rng addrs;
  let placed = Array.sub addrs 0 k in
  Array.sort Int.compare placed;
  Array.iteri (fun i a -> Tcam.write tcam ~rule_id:(100 + i) ~addr:a) placed;
  Tcam.reset_counters tcam;
  tcam

let order_of tcam =
  let acc = ref [] in
  Tcam.iter_used tcam (fun ~addr:_ ~rule_id -> acc := rule_id :: !acc);
  List.rev !acc

let test_already_canonical () =
  let order = Array.init 6 (fun i -> i) in
  List.iter
    (fun layout ->
      let tcam = Layout.place layout ~tcam_size:16 ~order in
      check "canonical" true (Defrag.is_canonical tcam ~layout);
      check_int "no moves" 0 (Defrag.moves_needed tcam ~layout);
      check "empty plan" true (Defrag.plan tcam ~layout = []))
    layouts

let test_restores_each_layout () =
  let rng = Rng.create ~seed:41 in
  List.iter
    (fun layout ->
      for _ = 1 to 10 do
        let tcam = scattered_tcam rng ~size:40 ~k:15 in
        let before = order_of tcam in
        let ops = Defrag.plan tcam ~layout in
        Tcam.apply_sequence tcam ops;
        check "canonical after" true (Defrag.is_canonical tcam ~layout);
        Alcotest.(check (list int)) "relative order preserved" before (order_of tcam);
        check_int "count unchanged" 15 (Tcam.used_count tcam)
      done)
    layouts

let test_intermediate_safety () =
  (* Every plan must pass the shadow-table verifier against a dependency
     graph that totally orders the entries (the strictest client). *)
  let rng = Rng.create ~seed:42 in
  List.iter
    (fun layout ->
      for _ = 1 to 10 do
        let tcam = scattered_tcam rng ~size:40 ~k:12 in
        let graph = Graph.create () in
        let ids = order_of tcam in
        List.iteri
          (fun i id ->
            Graph.add_node graph id;
            if i > 0 then Graph.add_edge graph (List.nth ids (i - 1)) id)
          ids;
        let ops = Defrag.plan tcam ~layout in
        check "verified" true (Check.sequence graph tcam ops = Ok ())
      done)
    layouts

let test_empty_table () =
  let tcam = Tcam.create ~size:16 () in
  List.iter
    (fun layout ->
      check "empty is canonical" true (Defrag.is_canonical tcam ~layout);
      check_int "no moves for nothing" 0 (Defrag.moves_needed tcam ~layout);
      check "empty plan" true (Defrag.plan tcam ~layout = []))
    layouts

let test_single_entry () =
  List.iter
    (fun layout ->
      (* one entry marooned at the top: the plan is at most one move and
         lands it on the layout's canonical slot for a 1-entry table *)
      let tcam = Tcam.create ~size:16 () in
      Tcam.write tcam ~rule_id:5 ~addr:15;
      let ops = Defrag.plan tcam ~layout in
      check "at most one move" true (List.length ops <= 1);
      Tcam.apply_sequence tcam ops;
      check "canonical after" true (Defrag.is_canonical tcam ~layout);
      check_int "still one entry" 1 (Tcam.used_count tcam);
      check "entry survived" true (Tcam.mem tcam 5);
      (* idempotence on the single entry *)
      check "second plan empty" true (Defrag.plan tcam ~layout = []))
    layouts

let test_moves_bounded () =
  let rng = Rng.create ~seed:43 in
  let tcam = scattered_tcam rng ~size:60 ~k:20 in
  List.iter
    (fun layout ->
      let ops = Defrag.plan tcam ~layout in
      check "one write per out-of-place entry" true (List.length ops <= 20))
    layouts

let test_does_not_fit () =
  let tcam = Tcam.create ~size:8 () in
  for a = 0 to 5 do
    Tcam.write tcam ~rule_id:a ~addr:a
  done;
  Alcotest.check_raises "interleaved-1 needs 12 slots"
    (Invalid_argument "Defrag: entries do not fit under the target layout")
    (fun () -> ignore (Defrag.plan tcam ~layout:(Layout.Interleaved 1)))

let test_after_churn_gaps_reopen () =
  (* Drive an interleaved run until its gaps fill, defragment, and check
     the gaps are back. *)
  let table = Dataset.build_table Dataset.ACL5 ~seed:44 ~n:100 in
  let layout = Layout.Interleaved 2 in
  let run =
    Firmware.create ~layout_override:layout (Firmware.FR_O Store.Bit_backend)
      ~table ~tcam_size:400 ()
  in
  let rng = Rng.create ~seed:45 in
  let stream =
    Updates.generate rng ~live:(Array.to_list table.Dataset.order) ~count:100
      ~with_deletes:false ~id_base:1_000
  in
  ignore (Firmware.exec_all run stream);
  let tcam = Firmware.tcam run in
  check "degraded" false (Defrag.is_canonical tcam ~layout);
  let ops = Defrag.plan tcam ~layout in
  check "verified against live graph" true
    (Check.sequence (Firmware.graph run) tcam ops = Ok ());
  Tcam.apply_sequence tcam ops;
  check "canonical again" true (Defrag.is_canonical tcam ~layout);
  check "dag order still holds" true
    (Tcam.check_dag_order tcam (Firmware.graph run) = Ok ())

let test_full_occupancy () =
  (* every slot used: Original and Separated are already canonical (their
     placement is the identity at n = size), and a layout that needs gaps
     must refuse rather than emit a colliding plan *)
  let tcam = Tcam.create ~size:16 () in
  for a = 0 to 15 do
    Tcam.write tcam ~rule_id:(100 + a) ~addr:a
  done;
  List.iter
    (fun layout ->
      check "full table is canonical" true (Defrag.is_canonical tcam ~layout);
      check "empty plan" true (Defrag.plan tcam ~layout = []))
    [ Layout.Original; Layout.Separated ];
  Alcotest.check_raises "interleaved cannot host a full table"
    (Invalid_argument "Defrag: entries do not fit under the target layout")
    (fun () -> ignore (Defrag.plan tcam ~layout:(Layout.Interleaved 4)))

let test_holes_at_region_boundaries () =
  (* dead rows hugging the array edges and the Separated half boundary —
     the placement must step over all of them, including entries that
     currently sit ON a dead row (stuck-at-write rows still erase, so
     moving out is always possible) *)
  let rng = Rng.create ~seed:46 in
  let dead = [ 0; 11; 12; 23 ] in
  List.iter
    (fun layout ->
      for _ = 1 to 10 do
        let tcam = scattered_tcam rng ~size:24 ~k:9 in
        List.iter
          (fun a -> ignore (Tcam.note_write_failure tcam ~addr:a))
          dead;
        let before = order_of tcam in
        let graph = Graph.create () in
        List.iteri
          (fun i id ->
            Graph.add_node graph id;
            if i > 0 then Graph.add_edge graph (List.nth before (i - 1)) id)
          before;
        let ops = Defrag.plan tcam ~layout in
        check "one write per entry, holes included" true
          (List.length ops <= 9);
        check "verified" true (Check.sequence graph tcam ops = Ok ());
        Tcam.apply_sequence tcam ops;
        check "canonical modulo holes" true (Defrag.is_canonical tcam ~layout);
        Alcotest.(check (list int)) "order preserved" before (order_of tcam);
        List.iter
          (fun a -> check "dead row vacated" true (Tcam.is_free tcam a))
          dead;
        check "idempotent" true (Defrag.plan tcam ~layout = [])
      done)
    layouts

let test_holes_shrink_capacity () =
  (* 10 entries, 12 rows, 3 dead: the writable space is too small and the
     planner must say so instead of silently stacking entries *)
  let tcam = Tcam.create ~size:12 () in
  for a = 0 to 9 do
    Tcam.write tcam ~rule_id:(100 + a) ~addr:a
  done;
  List.iter (fun a -> ignore (Tcam.note_write_failure tcam ~addr:a)) [ 2; 5; 9 ];
  Alcotest.check_raises "dead rows shrink the writable space"
    (Invalid_argument "Defrag: entries do not fit under the target layout")
    (fun () -> ignore (Defrag.plan tcam ~layout:Layout.Original))

let suite =
  [
    ( "defrag",
      [
        Alcotest.test_case "already canonical" `Quick test_already_canonical;
        Alcotest.test_case "empty table" `Quick test_empty_table;
        Alcotest.test_case "single entry" `Quick test_single_entry;
        Alcotest.test_case "restores each layout" `Quick test_restores_each_layout;
        Alcotest.test_case "intermediate safety" `Quick test_intermediate_safety;
        Alcotest.test_case "moves bounded" `Quick test_moves_bounded;
        Alcotest.test_case "does not fit" `Quick test_does_not_fit;
        Alcotest.test_case "reopens gaps after churn" `Quick test_after_churn_gaps_reopen;
        Alcotest.test_case "full occupancy" `Quick test_full_occupancy;
        Alcotest.test_case "holes at region boundaries" `Quick
          test_holes_at_region_boundaries;
        Alcotest.test_case "holes shrink capacity" `Quick
          test_holes_shrink_capacity;
      ] );
  ]
