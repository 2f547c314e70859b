open Fastrule

let check_int = Alcotest.(check int)
let check_addrs = Alcotest.(check (list int))

let test_fig3_metrics () =
  let graph, tcam = Fixtures.fig3 () in
  let m addr = Metric.compute Dir.Up graph tcam ~addr in
  check_int "M(0x3)" 4 (m 0x3);
  check_int "M(0x4)" 2 (m 0x4);
  check_int "M(0x5)" 3 (m 0x5);
  check_int "M(0x6)" 1 (m 0x6);
  check_int "M(0x7)" 2 (m 0x7);
  check_int "M(0x8)" 1 (m 0x8);
  check_int "M(0x9) free" 0 (m 0x9);
  check_int "M(0x1) isolated" 1 (m 0x1)

let test_fig3_paths () =
  let graph, tcam = Fixtures.fig3 () in
  let p addr = Metric.path Dir.Up graph tcam ~addr in
  check_addrs "P(0x3)" [ 0x3; 0x5; 0x7; 0x8 ] (p 0x3);
  check_addrs "P(0x4)" [ 0x4; 0x6 ] (p 0x4);
  check_addrs "P(0x5)" [ 0x5; 0x7; 0x8 ] (p 0x5);
  check_addrs "P free" [] (p 0x9)

let test_nearest_hop_selection () =
  (* A node with two dependencies follows the nearer (lower) address. *)
  let tcam = Tcam.create ~size:8 () in
  Tcam.write tcam ~rule_id:0 ~addr:0;
  Tcam.write tcam ~rule_id:1 ~addr:3;
  Tcam.write tcam ~rule_id:2 ~addr:6;
  let g = Graph.create () in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 2;
  check_int "hop to 3" 3 (Option.get (Dir.next_hop Dir.Up g tcam 0));
  check_addrs "path" [ 0; 3 ] (Metric.path Dir.Up g tcam ~addr:0);
  check_int "M" 2 (Metric.compute Dir.Up g tcam ~addr:0)

let test_down_direction_mirrors () =
  (* Down metric follows dependents toward lower addresses. *)
  let tcam = Tcam.create ~size:8 () in
  Tcam.write tcam ~rule_id:0 ~addr:1;
  Tcam.write tcam ~rule_id:1 ~addr:4;
  Tcam.write tcam ~rule_id:2 ~addr:6;
  let g = Graph.create () in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  check_int "M down at 6" 3 (Metric.compute Dir.Down g tcam ~addr:6);
  check_addrs "path down" [ 6; 4; 1 ] (Metric.path Dir.Down g tcam ~addr:6);
  check_int "M down at 1" 1 (Metric.compute Dir.Down g tcam ~addr:1);
  (* Up-bounds mirror too. *)
  check_int "bound up of 0" 4 (Dir.bound Dir.Up g tcam 0);
  check_int "bound down of 2" 4 (Dir.bound Dir.Down g tcam 2);
  check_int "bound down unconstrained" 0 (Dir.bound Dir.Down g tcam 0);
  check_int "bound up unconstrained" 7 (Dir.bound Dir.Up g tcam 2)

let test_absent_deps_ignored () =
  (* Dependencies not present in the TCAM do not constrain or count. *)
  let tcam = Tcam.create ~size:4 () in
  Tcam.write tcam ~rule_id:0 ~addr:0;
  let g = Graph.create () in
  Graph.add_edge g 0 99 (* 99 not stored *);
  check_int "M ignores absent" 1 (Metric.compute Dir.Up g tcam ~addr:0);
  check_int "bound ignores absent" 3 (Dir.bound Dir.Up g tcam 0)

let suite =
  [
    ( "metric",
      [
        Alcotest.test_case "fig3 metric values" `Quick test_fig3_metrics;
        Alcotest.test_case "fig3 paths" `Quick test_fig3_paths;
        Alcotest.test_case "nearest hop" `Quick test_nearest_hop_selection;
        Alcotest.test_case "down direction mirrors" `Quick test_down_direction_mirrors;
        Alcotest.test_case "absent deps ignored" `Quick test_absent_deps_ignored;
      ] );
  ]
