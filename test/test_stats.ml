open Fastrule

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let graph_of edges nodes =
  let g = Graph.create () in
  List.iter (Graph.add_node g) nodes;
  List.iter (fun (u, v) -> Graph.add_edge g u v) edges;
  g

let test_empty () =
  let s = Dag_stats.compute (Graph.create ()) in
  check_int "n" 0 s.Dag_stats.n;
  check_int "c_max" 0 s.Dag_stats.c_max

let test_singletons () =
  let s = Dag_stats.compute (graph_of [] [ 1; 2; 3 ]) in
  check_int "components" 3 s.Dag_stats.n_components;
  check_int "c_max" 1 s.Dag_stats.c_max;
  check_float "c_avg" 1.0 s.Dag_stats.c_avg;
  check_float "d_in" 0.0 s.Dag_stats.d_in

let test_chain_plus_singletons () =
  (* One 3-chain and two singletons: c_max 3, c_avg (3+1+1)/3. *)
  let s = Dag_stats.compute (graph_of [ (1, 2); (2, 3) ] [ 10; 11 ]) in
  check_int "n" 5 s.Dag_stats.n;
  check_int "m" 2 s.Dag_stats.m;
  check_int "components" 3 s.Dag_stats.n_components;
  check_int "c_max" 3 s.Dag_stats.c_max;
  check_float "c_avg" (5.0 /. 3.0) s.Dag_stats.c_avg;
  check_float "d_in" 0.4 s.Dag_stats.d_in

let test_star_diameter () =
  (* A star has diameter 2 regardless of fan-out. *)
  let s = Dag_stats.compute (graph_of [ (0, 1); (0, 2); (0, 3); (0, 4) ] []) in
  check_int "c_max" 2 s.Dag_stats.c_max;
  check_int "components" 1 s.Dag_stats.n_components;
  check_int "max_out" 4 s.Dag_stats.max_out_degree;
  check_int "max_in" 1 s.Dag_stats.max_in_degree

let test_weak_connectivity () =
  (* Edges in opposite directions still join one weak component. *)
  let s = Dag_stats.compute (graph_of [ (1, 2); (3, 2) ] []) in
  check_int "components" 1 s.Dag_stats.n_components;
  check_int "c_max" 2 s.Dag_stats.c_max

let test_components_listing () =
  let comps = Dag_stats.components (graph_of [ (1, 2) ] [ 5 ]) in
  let sizes = List.sort Int.compare (List.map List.length comps) in
  Alcotest.(check (list int)) "sizes" [ 1; 2 ] sizes

let test_c_max_is_longest_path () =
  (* The priority levels a table needs (the CLI's "DAG height") are the
     nodes on its longest dependency chain, which is c_max. *)
  List.iter
    (fun kind ->
      let table = Dataset.build_table kind ~seed:17 ~n:300 in
      check_int
        (Dataset.to_string kind ^ " c_max")
        (Topo.longest_path_nodes table.Dataset.graph)
        (Dataset.stats table).Dag_stats.c_max)
    Dataset.all

let suite =
  [
    ( "stats",
      [
        Alcotest.test_case "empty graph" `Quick test_empty;
        Alcotest.test_case "singletons" `Quick test_singletons;
        Alcotest.test_case "chain + singletons" `Quick test_chain_plus_singletons;
        Alcotest.test_case "star diameter" `Quick test_star_diameter;
        Alcotest.test_case "weak connectivity" `Quick test_weak_connectivity;
        Alcotest.test_case "components listing" `Quick test_components_listing;
        Alcotest.test_case "c_max = longest path" `Quick
          test_c_max_is_longest_path;
      ] );
  ]
