(* Replays of the paper's worked examples, asserted step by step. *)

open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok = function
  | Ok x -> x
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* --- Fig. 1: inserting "C*A" ------------------------------------------- *)
(* Alphabet {A,B,C} encoded in 2 bits per item (A=00, B=01, C=10); three
   items per match field.  As in the figure, the free space sits at the
   BOTTOM of the TCAM: 0x5 CAA / 0x4 **A / 0x3 A*B / 0x2 **B / 0x1 ***,
   0x0 free (the paper's 0x6..0x1 shifted down by one).  Displacement
   chains therefore cascade downward — the [Dir.Down] scheduler. *)

let fig1_rules =
  let mk id prio s =
    Rule.make ~id ~field:(Ternary.of_string s) ~action:(Rule.Forward id) ~priority:prio
  in
  [|
    mk 0 25 "100000" (* CAA *);
    mk 1 16 "****00" (* **A *);
    mk 2 15 "00**01" (* A*B *);
    mk 3 10 "****01" (* **B *);
    mk 4 6 "******" (* *** *);
  |]

let fig1_setup () =
  let graph = Dag_build.compile fig1_rules in
  let order = Dataset.precedence_order fig1_rules in
  let tcam = Tcam.create ~size:6 () in
  Array.iteri (fun i id -> Tcam.write tcam ~rule_id:id ~addr:(i + 1)) order;
  Tcam.reset_counters tcam;
  (graph, tcam)

let test_fig1_dag_shape () =
  let graph, tcam = fig1_setup () in
  (* *** depends on everything overlapping; minimum edges: *** -> {**A, **B};
     **B -> A*B; **A -> CAA. *)
  check "***->**A" true (Graph.mem_edge graph 4 1);
  check "***->**B" true (Graph.mem_edge graph 4 3);
  check "**B->A*B" true (Graph.mem_edge graph 3 2);
  check "**A->CAA" true (Graph.mem_edge graph 1 0);
  check "no shortcut ***->CAA" false (Graph.mem_edge graph 4 0);
  (* Placement: free at 0x0, *** at 0x1 ... CAA at 0x5. *)
  check "free bottom" true (Tcam.read tcam 0 = Tcam.Free);
  check "*** low" true (Tcam.read tcam 1 = Tcam.Used 4);
  check "CAA top" true (Tcam.read tcam 5 = Tcam.Used 0)

let test_fig1_priority_solution_needs_4_moves () =
  (* The naive baseline must shift the 4 entries below CAA down into the
     free space, exactly like Fig. 1(b). *)
  let _, tcam = fig1_setup () in
  let st = Naive.create ~tcam in
  let algo = Naive.algo st in
  (* C*A: depends on CAA (id 0); **A (id 1) depends on it. *)
  let ops = ok (algo.Algo.schedule_insert ~rule_id:9 ~deps:[ 0 ] ~dependents:[ 1 ]) in
  check_int "5 writes = 4 movements + insert" 5 (List.length ops);
  Tcam.apply_sequence tcam ops;
  check "C*A sits below CAA" true
    (Option.get (Tcam.addr_of tcam 9) < Option.get (Tcam.addr_of tcam 0));
  check "C*A sits above **A" true
    (Option.get (Tcam.addr_of tcam 9) > Option.get (Tcam.addr_of tcam 1))

let test_fig1_dag_solution_needs_2_moves () =
  (* FastRule on the DAG needs only 2 movements, like Fig. 1(c): C*A takes
     **A's slot and **A falls toward the free space — the other branch
     (A*B, **B) does not move. *)
  let graph, tcam = fig1_setup () in
  Graph.add_node graph 9;
  Graph.add_edge graph 9 0;
  Graph.add_edge graph 1 9;
  let algo = Greedy.algo (Greedy.create ~dir:Dir.Down ~graph ~tcam ()) in
  let ops = ok (algo.Algo.schedule_insert ~rule_id:9 ~deps:[ 0 ] ~dependents:[ 1 ]) in
  check_int "3 writes = 2 movements + insert" 3 (List.length ops);
  Tcam.apply_sequence tcam ops;
  check "invariant" true (Tcam.check_dag_order tcam graph = Ok ());
  check "C*A took **A's slot" true (Tcam.read tcam 4 = Tcam.Used 9);
  check "A*B did not move" true (Tcam.read tcam 3 = Tcam.Used 2);
  check "**B did not move" true (Tcam.read tcam 2 = Tcam.Used 3)

(* --- Fig. 3: the greedy walk ------------------------------------------ *)

let test_fig3_full_walkthrough () =
  let graph, tcam = Fixtures.fig3_with_request () in
  (* The paper's first call: SCHEDULE(0x3, 0x3, 9) — window {0x3} only. *)
  (match Algo.insert_window tcam ~deps:[ 5 ] ~dependents:[ 6 ] with
  | Ok (lo, hi) ->
      check_int "window lo" 0x2 lo;
      check_int "window hi" 0x3 hi
  | Error e -> Alcotest.failf "window: %s" e);
  let st = Greedy.create ~backend:Store.Bit_backend ~graph ~tcam () in
  let algo = Greedy.algo st in
  let ops = ok (algo.Algo.schedule_insert ~rule_id:9 ~deps:[ 5 ] ~dependents:[ 6 ]) in
  (* Paper order: U = (I,9,0x3),(I,5,0x4),(I,4,0x6),(I,2,0x9). *)
  let paper_order = List.rev ops in
  Alcotest.(check (list (pair int int)))
    "U(0x3)"
    [ (9, 0x3); (5, 0x4); (4, 0x6); (2, 0x9) ]
    (List.map
       (function
         | Op.Insert { rule_id; addr } -> (rule_id, addr)
         | Op.Delete _ -> Alcotest.fail "no deletes in an insert chain")
       paper_order);
  Tcam.apply_sequence tcam ops;
  algo.Algo.after_apply ops;
  (* Fig. 3(b): final table. *)
  List.iter
    (fun (id, addr) ->
      check (Printf.sprintf "entry %d at 0x%x" id addr) true
        (Tcam.addr_of tcam id = Some addr))
    [ (1, 0x1); (6, 0x2); (9, 0x3); (5, 0x4); (7, 0x5); (4, 0x6); (8, 0x7); (3, 0x8); (2, 0x9) ]

(* --- Fig. 5: BIT query/update ------------------------------------------ *)

let test_fig5_bit_example () =
  (* Fig. 5(a): querying min over M[1..6] decomposes into B[4] and B[6].
     We reproduce the array M = [2;4;1;3;5;9;...] (1-indexed in the paper;
     0-indexed here) and check the query; then Fig. 5(b)'s update of M[6]
     from 9 to 2. *)
  let m = [| 2; 4; 1; 3; 5; 9; 7; 8 |] in
  let t = Min_tree.create 8 ~init:0 in
  Array.iteri (fun i v -> Min_tree.set t i v) m;
  (match Min_tree.min_in t ~lo:0 ~hi:5 with
  | Some (i, v) ->
      check_int "min M[1..6]" 1 v;
      check_int "achieved at index 3 (paper's 3rd)" 2 i
  | None -> Alcotest.fail "non-empty");
  (* Update the 6th cell from 9 down to 2: the range minimum of [5..6]
     becomes 2, but the global minimum stays 1. *)
  Min_tree.set t 5 2;
  check_int "B[6] region" 2 (Option.get (Min_tree.min_value_in t ~lo:4 ~hi:5));
  check_int "global still 1" 1 (Option.get (Min_tree.min_value_in t ~lo:0 ~hi:7))

(* --- Fig. 6: separated layout insert/delete ---------------------------- *)

let test_fig6_balance_delete_refills () =
  (* Fig. 6(c)/(d): after deleting an entry in a region, balance delete
     moves another entry into the hole immediately. *)
  let order = [| 0; 1; 2; 3 |] in
  let tcam = Layout.place Layout.Separated ~tcam_size:8 ~order in
  let graph = Graph.create () in
  Array.iter (Graph.add_node graph) order;
  let st = Separated.create ~delete_mode:Separated.Balance ~graph ~tcam () in
  let algo = Separated.algo st in
  let ops = ok (algo.Algo.schedule_delete ~rule_id:0) in
  Tcam.apply_sequence tcam ops;
  Graph.remove_node graph 0;
  algo.Algo.after_apply ops;
  (* The orange node is gone and a blue one (entry 1) fills its slot. *)
  check "hole refilled" true (Tcam.read tcam 0 = Tcam.Used 1);
  check "edge returned to pool" true (Tcam.read tcam 1 = Tcam.Free)

let suite =
  [
    ( "paper-examples",
      [
        Alcotest.test_case "fig1 DAG shape" `Quick test_fig1_dag_shape;
        Alcotest.test_case "fig1 priority = 4 moves" `Quick
          test_fig1_priority_solution_needs_4_moves;
        Alcotest.test_case "fig1 DAG = 2 moves" `Quick test_fig1_dag_solution_needs_2_moves;
        Alcotest.test_case "fig3 full walkthrough" `Quick test_fig3_full_walkthrough;
        Alcotest.test_case "fig5 BIT example" `Quick test_fig5_bit_example;
        Alcotest.test_case "fig6 balance delete" `Quick test_fig6_balance_delete_refills;
      ] );
  ]
