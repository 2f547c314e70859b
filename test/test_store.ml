open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let backends = Store.all_backends

let test_initial_values_agree () =
  let graph, tcam = Fixtures.fig3 () in
  List.iter
    (fun backend ->
      let s = Store.create ~backend ~dir:Dir.Up graph tcam in
      for a = 0 to Tcam.size tcam - 1 do
        check_int
          (Printf.sprintf "%s M(0x%x)" (Store.backend_to_string backend) a)
          (Metric.compute Dir.Up graph tcam ~addr:a)
          (Store.get s a)
      done)
    backends

let test_min_in_agree_across_backends () =
  let rng = Rng.create ~seed:77 in
  for _ = 1 to 20 do
    let graph, tcam = Fixtures.random_scenario rng ~size:32 ~k:24 ~edge_prob:0.08 in
    let stores =
      List.map (fun b -> Store.create ~backend:b ~dir:Dir.Up graph tcam) backends
    in
    for _ = 1 to 20 do
      let lo = Rng.int rng 32 in
      let hi = Rng.int_in rng lo 31 in
      match List.map (fun s -> Store.min_in s ~lo ~hi) stores with
      | [] -> assert false
      | reference :: rest ->
          List.iteri
            (fun i r ->
              check (Printf.sprintf "backend %d agrees" (i + 1)) true
                (r = reference))
            rest
    done
  done

let test_min_in_tiebreak_up () =
  (* Ties go to the candidate nearest the entries: the lowest address for
     the upward direction. *)
  let tcam = Tcam.create ~size:8 () in
  Tcam.write tcam ~rule_id:0 ~addr:3;
  let g = Graph.create () in
  Graph.add_node g 0;
  List.iter
    (fun backend ->
      let s = Store.create ~backend ~dir:Dir.Up g tcam in
      (match Store.min_in s ~lo:0 ~hi:7 with
      | Some (a, v) ->
          check_int "free metric" 0 v;
          check_int "lowest free wins" 0 a
      | None -> Alcotest.fail "non-empty");
      match Store.min_in s ~lo:4 ~hi:7 with
      | Some (a, _) -> check_int "lowest in subrange" 4 a
      | None -> Alcotest.fail "non-empty")
    backends

let test_min_in_tiebreak_down () =
  (* Mirror: the highest address for the downward direction. *)
  let tcam = Tcam.create ~size:8 () in
  Tcam.write tcam ~rule_id:0 ~addr:3;
  let g = Graph.create () in
  Graph.add_node g 0;
  List.iter
    (fun backend ->
      let s = Store.create ~backend ~dir:Dir.Down g tcam in
      match Store.min_in s ~lo:0 ~hi:7 with
      | Some (a, v) ->
          check_int "free metric" 0 v;
          check_int "highest free wins" 7 a
      | None -> Alcotest.fail "non-empty")
    backends

let test_refresh_after_move () =
  let graph, tcam = Fixtures.fig3 () in
  List.iter
    (fun backend ->
      let graph = Graph.copy graph and tcam = Tcam.copy tcam in
      let s = Store.create ~backend ~dir:Dir.Up graph tcam in
      (* Move entry 2 (0x6) to the free 0x9 and re-check all metrics:
         entry 4's chain shortens (its dep moved), address 0x6 frees. *)
      Tcam.write tcam ~rule_id:2 ~addr:0x9;
      Store.refresh s ~addrs:[ 0x6; 0x9 ] ~ids:[];
      for a = 0 to Tcam.size tcam - 1 do
        check_int
          (Printf.sprintf "%s after move M(0x%x)" (Store.backend_to_string backend) a)
          (Metric.compute Dir.Up graph tcam ~addr:a)
          (Store.get s a)
      done)
    backends

let test_refresh_after_delete () =
  let graph, tcam = Fixtures.fig3 () in
  List.iter
    (fun backend ->
      let graph = Graph.copy graph and tcam = Tcam.copy tcam in
      let s = Store.create ~backend ~dir:Dir.Up graph tcam in
      (* Delete entry 8 (at 0x7): the chains through it (5 -> 7 -> 8 -> 3)
         must shorten for 7 and 5 — that propagation is the point. *)
      let dependents = Graph.dependents graph 8 in
      Tcam.erase tcam ~addr:0x7;
      Graph.remove_node graph 8;
      Store.refresh s ~addrs:[ 0x7 ] ~ids:dependents;
      check_int "M(0x5) shortened" 1 (Store.get s 0x5);
      check_int "M(0x3) shortened" 2 (Store.get s 0x3);
      for a = 0 to Tcam.size tcam - 1 do
        check_int "full agreement" (Metric.compute Dir.Up graph tcam ~addr:a) (Store.get s a)
      done)
    backends

let test_rebuild () =
  let graph, tcam = Fixtures.fig3 () in
  let s = Store.create ~backend:Store.Bit_backend ~dir:Dir.Up graph tcam in
  (* Sabotage by mutating the TCAM without refresh, then rebuild. *)
  Tcam.write tcam ~rule_id:2 ~addr:0x9;
  Store.rebuild s;
  check_int "rebuilt" (Metric.compute Dir.Up graph tcam ~addr:0x6) (Store.get s 0x6)

let suite =
  [
    ( "store",
      [
        Alcotest.test_case "initial values agree" `Quick test_initial_values_agree;
        Alcotest.test_case "min_in agrees across backends" `Quick test_min_in_agree_across_backends;
        Alcotest.test_case "tiebreak up" `Quick test_min_in_tiebreak_up;
        Alcotest.test_case "tiebreak down" `Quick test_min_in_tiebreak_down;
        Alcotest.test_case "refresh after move" `Quick test_refresh_after_move;
        Alcotest.test_case "refresh after delete" `Quick test_refresh_after_delete;
        Alcotest.test_case "rebuild" `Quick test_rebuild;
      ] );
  ]
