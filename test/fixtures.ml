(* Shared test fixtures. *)

open Fastrule

(* The Fig. 3 configuration: nine entries at 0x1..0x8 (0x0, 0x9 free) with
   the dependency chains 5 -> 7 -> 8 -> 3 and 4 -> 2.  Entry ids are the
   figure's node labels; the new node is 9 with 6 -> 9 -> 5. *)
let fig3 () =
  let tcam = Tcam.create ~size:10 () in
  List.iter
    (fun (id, addr) -> Tcam.write tcam ~rule_id:id ~addr)
    [ (1, 0x1); (6, 0x2); (5, 0x3); (4, 0x4); (7, 0x5); (2, 0x6); (8, 0x7); (3, 0x8) ];
  Tcam.reset_counters tcam;
  let graph = Graph.create () in
  List.iter (Graph.add_node graph) [ 1; 6; 5; 4; 7; 2; 8; 3 ];
  List.iter
    (fun (u, v) -> Graph.add_edge graph u v)
    [ (5, 7); (7, 8); (8, 3); (4, 2) ];
  (graph, tcam)

(* Add the Fig. 3 insertion request's node and edges (compiler stage). *)
let fig3_with_request () =
  let graph, tcam = fig3 () in
  Graph.add_node graph 9;
  Graph.add_edge graph 9 5;
  Graph.add_edge graph 6 9;
  (graph, tcam)

(* A small random scenario builder used by several suites: a fresh TCAM of
   [size] holding [k] entries at random distinct addresses with a random
   DAG over them whose edges always point to higher addresses (so the
   dependency invariant holds by construction). *)
let random_scenario rng ~size ~k ~edge_prob =
  let tcam = Tcam.create ~size () in
  let addrs = Array.init size (fun i -> i) in
  Rng.shuffle rng addrs;
  let placed = Array.sub addrs 0 k in
  Array.sort Int.compare placed;
  Array.iteri (fun i addr -> Tcam.write tcam ~rule_id:i ~addr) placed;
  Tcam.reset_counters tcam;
  let graph = Graph.create () in
  for i = 0 to k - 1 do
    Graph.add_node graph i
  done;
  (* Entry i sits at placed.(i); edges i -> j require placed.(i) < placed.(j),
     i.e. i < j. *)
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if Rng.chance rng edge_prob then Graph.add_edge graph i j
    done
  done;
  (graph, tcam)
