(* Tests for Fr_sched.Dir — the direction abstraction the schedulers use
   for movement bounds and chain propagation.  Focus: the degenerate
   shapes the sweeps never hit (empty table, single entry, constraints
   absent from the TCAM). *)

open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sorted l = List.sort compare l

let targets dir g id =
  let acc = ref [] in
  Dir.propagation_targets dir g id (fun x -> acc := x :: !acc);
  sorted !acc

let test_unconstrained_entry () =
  (* A node with no edges: free to move anywhere in either direction. *)
  let g = Graph.create () in
  Graph.add_node g 1;
  let tcam = Tcam.create ~size:16 () in
  Tcam.write tcam ~rule_id:1 ~addr:7;
  check_int "Up bound = top of table" 15 (Dir.bound Dir.Up g tcam 1);
  check_int "Down bound = bottom of table" 0 (Dir.bound Dir.Down g tcam 1);
  check "no next hop up" true (Dir.next_hop Dir.Up g tcam 1 = None);
  check "no next hop down" true (Dir.next_hop Dir.Down g tcam 1 = None);
  check "no propagation targets" true
    (targets Dir.Up g 1 = [] && targets Dir.Down g 1 = [])

let test_empty_tcam () =
  (* Edges exist in the graph but nobody is placed yet: constraints that
     are not in the TCAM must not constrain. *)
  let g = Graph.create () in
  List.iter (Graph.add_node g) [ 1; 2 ];
  Graph.add_edge g 1 2;
  let tcam = Tcam.create ~size:8 () in
  check_int "Up bound ignores unplaced dependency" 7 (Dir.bound Dir.Up g tcam 1);
  check_int "Down bound ignores unplaced dependent" 0 (Dir.bound Dir.Down g tcam 2);
  check "next hop none (empty table)" true
    (Dir.next_hop Dir.Up g tcam 1 = None
    && Dir.next_hop Dir.Down g tcam 2 = None)

let test_nearest_constraint_wins () =
  (* 1 depends on 2 and 3; Up must bound at the nearer (lower-addressed)
     dependency.  4 and 5 depend on 3; Down must bound 3 at the nearer
     (higher-addressed) dependent. *)
  let g = Graph.create () in
  List.iter (Graph.add_node g) [ 1; 2; 3; 4; 5 ];
  Graph.add_edge g 1 2;
  Graph.add_edge g 1 3;
  Graph.add_edge g 4 3;
  Graph.add_edge g 5 3;
  let tcam = Tcam.create ~size:32 () in
  Tcam.write tcam ~rule_id:1 ~addr:0;
  Tcam.write tcam ~rule_id:4 ~addr:2;
  Tcam.write tcam ~rule_id:5 ~addr:4;
  Tcam.write tcam ~rule_id:2 ~addr:9;
  Tcam.write tcam ~rule_id:3 ~addr:6;
  check_int "Up bound is nearest dependency" 6 (Dir.bound Dir.Up g tcam 1);
  check "Up next hop" true (Dir.next_hop Dir.Up g tcam 1 = Some 6);
  check_int "Down bound is nearest dependent" 4 (Dir.bound Dir.Down g tcam 3);
  check "Down next hop" true (Dir.next_hop Dir.Down g tcam 3 = Some 4);
  (* propagation: who reads whose metric *)
  check "Up: dependents read 3" true (targets Dir.Up g 3 = [ 1; 4; 5 ]);
  check "Down: dependencies read 1" true (targets Dir.Down g 1 = [ 2; 3 ])

let test_partial_placement () =
  (* Only one of two dependencies is placed: the bound must come from the
     placed one alone. *)
  let g = Graph.create () in
  List.iter (Graph.add_node g) [ 1; 2; 3 ];
  Graph.add_edge g 1 2;
  Graph.add_edge g 1 3;
  let tcam = Tcam.create ~size:16 () in
  Tcam.write tcam ~rule_id:1 ~addr:1;
  Tcam.write tcam ~rule_id:3 ~addr:11;
  check_int "bound from the placed dependency" 11 (Dir.bound Dir.Up g tcam 1);
  check "next hop from the placed dependency" true
    (Dir.next_hop Dir.Up g tcam 1 = Some 11)

let test_to_string () =
  check "names" true
    (Dir.to_string Dir.Up = "up" && Dir.to_string Dir.Down = "down")

let suite =
  [
    ( "dir",
      [
        Alcotest.test_case "unconstrained entry" `Quick test_unconstrained_entry;
        Alcotest.test_case "empty tcam" `Quick test_empty_tcam;
        Alcotest.test_case "nearest constraint wins" `Quick
          test_nearest_constraint_wins;
        Alcotest.test_case "partial placement" `Quick test_partial_placement;
        Alcotest.test_case "to_string" `Quick test_to_string;
      ] );
  ]
