open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sorted_ids rules = List.sort Int.compare (List.map (fun (r : Rule.t) -> r.Rule.id) rules)

let brute_force rules (q : Rule.t) =
  Array.to_list rules
  |> List.filter (fun (r : Rule.t) -> r.Rule.id <> q.Rule.id && Rule.overlaps q r)
  |> sorted_ids

let test_matches_brute_force () =
  List.iter
    (fun kind ->
      let rules = Dataset.generate kind ~seed:13 ~n:250 in
      let idx = Overlap_index.create () in
      Array.iter (Overlap_index.add idx) rules;
      check_int "length" 250 (Overlap_index.length idx);
      Array.iter
        (fun q ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s overlap set of %d" (Dataset.to_string kind) q.Rule.id)
            (brute_force rules q)
            (sorted_ids (Overlap_index.overlapping idx q)))
        rules)
    Dataset.extended

let test_add_remove () =
  let rules = Dataset.generate Dataset.FW4 ~seed:14 ~n:50 in
  let idx = Overlap_index.create () in
  Array.iter (Overlap_index.add idx) rules;
  Overlap_index.remove idx rules.(7);
  check_int "removed" 49 (Overlap_index.length idx);
  Array.iter
    (fun q ->
      if q.Rule.id <> 7 then
        check "7 never reported" false
          (List.exists (fun (r : Rule.t) -> r.Rule.id = 7)
             (Overlap_index.overlapping idx q)))
    rules;
  Overlap_index.add idx rules.(7);
  Overlap_index.add idx rules.(7);
  check_int "idempotent re-add" 50 (Overlap_index.length idx)

(* The leading cared prefix of a 32-bit field, most significant bit
   first, read bit by bit. *)
let leading_prefix field =
  let rec go l acc =
    if l = 32 then acc
    else
      match Ternary.get field (31 - l) with
      | Ternary.Any -> acc
      | b -> go (l + 1) (b :: acc)
  in
  List.rev (go 0 [])

let rec prefix_compatible a b =
  match (a, b) with
  | [], _ | _, [] -> true
  | x :: a', y :: b' -> x = y && prefix_compatible a' b'

let prefixes (r : Rule.t) =
  let f = Header.unpack r.Rule.field in
  (leading_prefix f.Header.src_ip, leading_prefix f.Header.dst_ip)

(* Both versions of every flow a 24-switch ring rollout installs: source
   wildcard, destination /plen, proto = version. *)
let rollout_rules () =
  let sc =
    Net_scenario.make ~flows:300 ~reroute:100 ~withdraw:15 ~introduce:15 ~waypoints:30
      ~seed:13 (Net_topo.make Net_topo.Ring 24)
  in
  let tbl = Hashtbl.create 700 in
  List.iteri
    (fun version pol ->
      List.iter
        (fun fl ->
          let r = Net_policy.rule fl ~version ~port:1 in
          Hashtbl.replace tbl r.Rule.id r)
        pol)
    [ sc.Net_scenario.old_policy; sc.Net_scenario.new_policy ];
  Array.of_seq (Hashtbl.to_seq_values tbl)

let test_candidates_compatible () =
  (* The candidates are exactly the rules whose source and destination
     prefixes are both compatible with the query's. *)
  List.iter
    (fun (name, rules) ->
      let idx = Overlap_index.create () in
      Array.iter (Overlap_index.add idx) rules;
      let pre = Array.map prefixes rules in
      Array.iteri
        (fun i q ->
          let got = ref [] in
          Overlap_index.iter_candidates idx q (fun r -> got := r :: !got);
          let qs, qd = pre.(i) in
          let expect = ref [] in
          Array.iteri
            (fun j (rs, rd) ->
              if prefix_compatible qs rs && prefix_compatible qd rd then
                expect := rules.(j) :: !expect)
            pre;
          Alcotest.(check (list int))
            (Printf.sprintf "%s candidates of %d" name q.Rule.id)
            (sorted_ids !expect) (sorted_ids !got))
        rules)
    [
      ("fw5", Dataset.generate Dataset.FW5 ~seed:13 ~n:600);
      ("acl4", Dataset.generate Dataset.ACL4 ~seed:13 ~n:600);
      ("rollout", rollout_rules ());
    ]

let test_candidates_narrow () =
  (* Prefix compatibility leaves few candidates beyond the true overlaps:
     4.16 against 2.72 on FW5 and 2.47 against 1.21 on ACL4 at this seed. *)
  List.iter
    (fun kind ->
      let n = 2_000 in
      let rules = Dataset.generate kind ~seed:13 ~n in
      let idx = Overlap_index.create () in
      Array.iter (Overlap_index.add idx) rules;
      let cands = ref 0 and hits = ref 0 in
      Array.iter
        (fun q ->
          cands := !cands + Overlap_index.candidate_count idx q;
          hits := !hits + List.length (Overlap_index.overlapping idx q))
        rules;
      let mean x = float_of_int !x /. float_of_int n in
      if mean cands > (3.0 *. mean hits) +. 2.0 then
        Alcotest.failf "%s: %.2f candidates per query for %.2f overlaps"
          (Dataset.to_string kind) (mean cands) (mean hits))
    [ Dataset.FW5; Dataset.ACL4 ]

let test_coarse_rules_always_candidates () =
  (* A wildcard-destination rule must appear in every query's candidates. *)
  let coarse =
    Rule.make ~id:900
      ~field:(Header.pack Header.wildcard)
      ~action:Rule.Drop ~priority:0
  in
  let rules = Dataset.generate Dataset.ACL4 ~seed:16 ~n:100 in
  let idx = Overlap_index.create () in
  Array.iter (Overlap_index.add idx) rules;
  Overlap_index.add idx coarse;
  Array.iter
    (fun q ->
      check "coarse reported" true
        (List.exists (fun (r : Rule.t) -> r.Rule.id = 900)
           (Overlap_index.overlapping idx q)))
    rules

let test_non_5tuple_rules_supported () =
  (* Toy-width rules sit in the plain list and stay correct. *)
  let mk id s = Rule.make ~id ~field:(Ternary.of_string s) ~action:Rule.Drop ~priority:1 in
  let idx = Overlap_index.create () in
  List.iter (Overlap_index.add idx) [ mk 0 "1***"; mk 1 "10**"; mk 2 "0***" ];
  Alcotest.(check (list int)) "overlaps of 0" [ 1 ] (sorted_ids (Overlap_index.overlapping idx (mk 0 "1***")));
  Alcotest.(check (list int)) "overlaps of 2" [] (sorted_ids (Overlap_index.overlapping idx (mk 2 "0***")))

let test_compile_fast_equals_compile () =
  List.iter
    (fun kind ->
      let rules = Dataset.generate kind ~seed:17 ~n:400 in
      let a = Dag_build.compile rules in
      let b = Dag_build.compile_fast rules in
      check_int "edge count" (Graph.n_edges a) (Graph.n_edges b);
      Graph.iter_nodes a (fun u ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s deps of %d" (Dataset.to_string kind) u)
            (List.sort Int.compare (Graph.deps a u))
            (List.sort Int.compare (Graph.deps b u))))
    Dataset.extended

let test_compile_fast_fills_index () =
  let rules = Dataset.generate Dataset.FW5 ~seed:18 ~n:300 in
  let index = Overlap_index.create () in
  ignore (Dag_build.compile_fast ~index rules);
  check_int "every rule indexed" 300 (Overlap_index.length index);
  Array.iter
    (fun q ->
      Alcotest.(check (list int))
        (Printf.sprintf "overlap set of %d" q.Rule.id)
        (brute_force rules q)
        (sorted_ids (Overlap_index.overlapping index q)))
    rules;
  check "non-empty index rejected" true
    (try
       ignore (Dag_build.compile_fast ~index rules);
       false
     with Invalid_argument _ -> true)

let test_readd_swaps_payload () =
  let rules = Dataset.generate Dataset.ACL4 ~seed:19 ~n:80 in
  let idx = Overlap_index.create () in
  Array.iter (Overlap_index.add idx) rules;
  let r = rules.(5) in
  Overlap_index.add idx (Rule.with_action r Rule.Controller);
  check_int "length unchanged" 80 (Overlap_index.length idx);
  let seen = ref [] in
  Overlap_index.iter_candidates idx r (fun c -> if c.Rule.id = r.Rule.id then seen := c :: !seen);
  check "one entry, new payload" true
    (match !seen with [ c ] -> c.Rule.action = Rule.Controller | _ -> false)

let suite =
  [
    ( "overlap-index",
      [
        Alcotest.test_case "matches brute force" `Quick test_matches_brute_force;
        Alcotest.test_case "add/remove" `Quick test_add_remove;
        Alcotest.test_case "candidates prefix-compatible" `Quick
          test_candidates_compatible;
        Alcotest.test_case "candidates narrow" `Quick test_candidates_narrow;
        Alcotest.test_case "coarse rules always reported" `Quick
          test_coarse_rules_always_candidates;
        Alcotest.test_case "non-5-tuple rules" `Quick test_non_5tuple_rules_supported;
        Alcotest.test_case "compile_fast = compile" `Quick test_compile_fast_equals_compile;
        Alcotest.test_case "compile_fast fills the index" `Quick
          test_compile_fast_fills_index;
        Alcotest.test_case "re-add swaps the payload" `Quick test_readd_swaps_payload;
      ] );
  ]
