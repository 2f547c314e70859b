(* Property-based tests (qcheck) for the core invariants of DESIGN.md §6. *)

open Fastrule

(* --- generators -------------------------------------------------------- *)

let ternary_gen width =
  QCheck.Gen.(
    array_repeat width (frequencyl [ (2, '0'); (2, '1'); (3, '*') ])
    >|= fun chars -> Ternary.of_string (String.init width (Array.get chars)))

let arb_ternary width =
  QCheck.make ~print:Ternary.to_string (ternary_gen width)

let arb_ternary_pair width =
  QCheck.make
    ~print:(fun (a, b) -> Ternary.to_string a ^ " / " ^ Ternary.to_string b)
    QCheck.Gen.(pair (ternary_gen width) (ternary_gen width))

(* A random rule table over a narrow 10-bit header so overlaps are common. *)
let rules_gen =
  QCheck.Gen.(
    let rule_gen i =
      ternary_gen 10 >|= fun field ->
      Rule.make ~id:i ~field ~action:(Rule.Forward i)
        ~priority:(10 - Ternary.num_wildcards field)
    in
    int_range 2 25 >>= fun n ->
    let rec build i acc =
      if i = n then return (Array.of_list (List.rev acc))
      else rule_gen i >>= fun r -> build (i + 1) (r :: acc)
    in
    build 0 [])

let arb_rules =
  QCheck.make
    ~print:(fun rules ->
      String.concat ";"
        (Array.to_list
           (Array.map (fun (r : Rule.t) -> Ternary.to_string r.Rule.field) rules)))
    rules_gen

(* --- ternary algebra --------------------------------------------------- *)

let prop_overlap_symmetric =
  QCheck.Test.make ~name:"overlap is symmetric" ~count:500 (arb_ternary_pair 12)
    (fun (a, b) -> Ternary.overlaps a b = Ternary.overlaps b a)

let prop_subsumes_implies_overlap =
  QCheck.Test.make ~name:"subsumption implies overlap" ~count:500
    (arb_ternary_pair 12) (fun (a, b) ->
      QCheck.assume (Ternary.subsumes a b);
      Ternary.overlaps a b)

let prop_intersect_members =
  QCheck.Test.make ~name:"intersection members match both" ~count:300
    (arb_ternary_pair 10) (fun (a, b) ->
      match Ternary.intersect a b with
      | None -> true
      | Some i ->
          let rng = Rng.create ~seed:(Ternary.hash i) in
          let ok = ref true in
          for _ = 1 to 20 do
            let v = Ternary.random_exact_in rng i in
            if not (Ternary.matches_value a v && Ternary.matches_value b v) then
              ok := false
          done;
          !ok)

let prop_sampled_member_matches =
  QCheck.Test.make ~name:"random_exact_in lands inside" ~count:300 (arb_ternary 16)
    (fun t ->
      let rng = Rng.create ~seed:(Ternary.hash t) in
      Ternary.matches_value t (Ternary.random_exact_in rng t))

let prop_overlap_iff_shared_member =
  (* For narrow widths, exhaustively check overlap = exists shared member. *)
  QCheck.Test.make ~name:"overlap iff shared member (width 6)" ~count:300
    (arb_ternary_pair 6) (fun (a, b) ->
      let shared = ref false in
      for v = 0 to 63 do
        let bits = [| Int64.of_int v |] in
        if Ternary.matches_value a bits && Ternary.matches_value b bits then
          shared := true
      done;
      Ternary.overlaps a b = !shared)

(* --- compiler ----------------------------------------------------------- *)

let prop_compile_acyclic_and_covering =
  QCheck.Test.make ~name:"compile: acyclic + closure covers overlaps" ~count:60
    arb_rules (fun rules ->
      let g = Dag_build.compile rules in
      Topo.is_acyclic g && Dag_build.closure_covers_overlaps g rules)

(* The cache tier's admission safety rides on closure queries staying
   sound over a *churned* graph, not just a freshly compiled one: after
   every random interleaving of incremental inserts and contracted
   deletes, the transitive closure must still cover every overlapping
   live pair.  Deletion must contract (Graph.remove_node ~contract) —
   plain removal loses the ordering that flowed through the deleted
   node, which is exactly the unsoundness this property would expose. *)
let prop_closure_covers_across_churn =
  QCheck.Test.make ~name:"closure covers overlaps across insert/delete churn"
    ~count:40
    QCheck.(pair arb_rules (make ~print:string_of_int Gen.(int_range 0 10_000)))
    (fun (rules, seed) ->
      let rng = Rng.create ~seed in
      let g = Graph.create () in
      let live = Hashtbl.create 16 in
      let live_rules () = Hashtbl.fold (fun _ r acc -> r :: acc) live [] in
      let next = ref 0 in
      let n = Array.length rules in
      let ok = ref true in
      for _ = 1 to 3 * n do
        (if !next < n && (Hashtbl.length live = 0 || Rng.chance rng 0.6) then begin
           let r = rules.(!next) in
           incr next;
           Dag_build.insert g ~existing:(live_rules ()) r;
           Hashtbl.replace live r.Rule.id r
         end
         else if Hashtbl.length live > 0 then begin
           let r = Rng.pick rng (Array.of_list (live_rules ())) in
           Dag_build.remove ~contract:true g r.Rule.id;
           Hashtbl.remove live r.Rule.id
         end);
        let arr = Array.of_list (live_rules ()) in
        if not (Topo.is_acyclic g && Dag_build.closure_covers_overlaps g arr)
        then ok := false
      done;
      !ok)

(* --- min-tree ------------------------------------------------------------ *)

let prop_min_tree_vs_naive =
  QCheck.Test.make ~name:"min-tree equals naive scan" ~count:200
    QCheck.(
      make
        Gen.(
          int_range 1 60 >>= fun n ->
          list_size (int_range 1 80) (pair (int_range 0 (n - 1)) (int_range 0 50))
          >|= fun ops -> (n, ops)))
    (fun (n, ops) ->
      let t = Min_tree.create n ~init:25 in
      let reference = Array.make n 25 in
      List.for_all
        (fun (i, v) ->
          Min_tree.set t i v;
          reference.(i) <- v;
          (* check a handful of ranges *)
          List.for_all
            (fun (lo, hi) ->
              let lo = min lo hi and hi = max lo hi in
              let best_v = ref max_int and best_i = ref (-1) in
              for k = lo to min hi (n - 1) do
                if reference.(k) <= !best_v then begin
                  best_v := reference.(k);
                  best_i := k
                end
              done;
              Min_tree.min_in t ~lo ~hi:(min hi (n - 1)) = Some (!best_i, !best_v))
            [ (0, n - 1); (i, n - 1); (0, i); (i / 2, i) ])
        ops)

(* --- end-to-end scheduler invariants ------------------------------------ *)

let algo_choices =
  [
    ("naive", Firmware.Naive);
    ("ruletris", Firmware.Ruletris);
    ("fr-o/bit", Firmware.FR_O Store.Bit_backend);
    ("fr-o/array", Firmware.FR_O Store.Array_backend);
    ("fr-o/od", Firmware.FR_O Store.On_demand);
    ("fr-sd", Firmware.FR_SD Store.Bit_backend);
    ("fr-sb", Firmware.FR_SB Store.Bit_backend);
  ]

(* One random end-to-end scenario: a compiled table + a random update
   stream, replayed with invariant checking on. *)
let scenario_gen =
  QCheck.Gen.(
    pair (int_range 0 10_000) (pair (int_range 10 60) bool) >|= fun (seed, (n, deletes)) ->
    (seed, n, deletes))

let arb_scenario =
  QCheck.make
    ~print:(fun (seed, n, deletes) -> Printf.sprintf "seed=%d n=%d deletes=%b" seed n deletes)
    scenario_gen

let run_scenario (seed, n, deletes) kind =
  let kinds = [| Dataset.ACL4; Dataset.ACL5; Dataset.FW4; Dataset.FW5; Dataset.ROUTE |] in
  let table = Dataset.build_table kinds.(seed mod 5) ~seed ~n in
  let rng = Rng.create ~seed:(seed + 1) in
  let stream =
    Updates.generate rng ~live:(Array.to_list table.Dataset.order) ~count:(2 * n)
      ~with_deletes:deletes ~id_base:(n + 1)
  in
  let run = Firmware.create ~check_invariant:true kind ~table ~tcam_size:(4 * n) () in
  let failed = Firmware.exec_all run stream in
  (run, failed)

let prop_invariant_all_algos =
  List.map
    (fun (name, kind) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "dependency invariant: %s" name)
        ~count:30 arb_scenario
        (fun sc ->
          let run, failed = run_scenario sc kind in
          failed = 0
          && Tcam.check_dag_order (Firmware.tcam run) (Firmware.graph run) = Ok ()))
    algo_choices

let prop_membership_agreement =
  QCheck.Test.make ~name:"final membership agrees across algorithms" ~count:15
    arb_scenario (fun sc ->
      let members kind =
        let run, failed = run_scenario sc kind in
        QCheck.assume (failed = 0);
        List.sort Int.compare (Tcam.used_ids (Firmware.tcam run))
      in
      let reference = members Firmware.Naive in
      List.for_all
        (fun (_, kind) -> members kind = reference)
        [ ("rt", Firmware.Ruletris); ("fr", Firmware.FR_O Store.Bit_backend);
          ("sb", Firmware.FR_SB Store.Bit_backend) ])

(* Every non-dead slot's stored metric equals a from-scratch
   [Metric.compute], and every slot's cached hop equals a fresh
   [Dir.next_hop] of its occupant. *)
let stores_truthful stores graph tcam =
  List.for_all
    (fun store ->
      let dir = Store.dir store in
      List.for_all
        (fun a ->
          let hop =
            match Tcam.read tcam a with
            | Tcam.Free -> None
            | Tcam.Used id -> Dir.next_hop dir graph tcam id
          in
          Store.hop store a = hop
          && (Tcam.is_dead tcam a
             || Store.get store a = Metric.compute dir graph tcam ~addr:a))
        (List.init (Tcam.size tcam) Fun.id))
    stores

let prop_metric_stores_truthful =
  QCheck.Test.make ~name:"metric stores truthful after streams" ~count:25
    arb_scenario (fun sc ->
      let seed, n, _ = sc in
      let table = Dataset.build_table Dataset.FW5 ~seed ~n in
      let rng = Rng.create ~seed:(seed + 2) in
      let stream =
        Updates.generate rng ~live:(Array.to_list table.Dataset.order) ~count:n
          ~with_deletes:true ~id_base:(n + 1)
      in
      let tcam =
        Layout.place Layout.Original ~tcam_size:(3 * n) ~order:table.Dataset.order
      in
      let graph = Graph.copy table.Dataset.graph in
      let st = Greedy.create ~backend:Store.Bit_backend ~graph ~tcam () in
      let algo = Greedy.algo st in
      List.iter
        (fun u ->
          match Updates.resolve graph tcam u with
          | Updates.R_insert { id; deps; dependents } as r ->
              Updates.apply_graph graph r;
              (match algo.Algo.schedule_insert ~rule_id:id ~deps ~dependents with
              | Ok ops ->
                  Tcam.apply_sequence tcam ops;
                  algo.Algo.after_apply ops
              | Error _ -> Graph.remove_node graph id)
          | Updates.R_delete { id } as r -> (
              match algo.Algo.schedule_delete ~rule_id:id with
              | Ok ops ->
                  Tcam.apply_sequence tcam ops;
                  Updates.apply_graph graph r;
                  algo.Algo.after_apply ops
              | Error _ -> ()))
        stream;
      stores_truthful [ Greedy.store st ] graph tcam)

(* The same truthfulness, driven through [Agent.apply]: a Remove contracts
   the graph around the removed rule, and the stores must be refreshed
   against the contracted graph.  Halfway through, a fault plan starts
   failing writes mid-sequence and condemning rows; Set_actions rewrite
   in place or relocate off dead rows; at three quarters the faults heal
   and a probe revives every condemned row.  Checks
   every store of FR-O (both pre-computed back-ends), FR-SD and FR-SB at
   every address after every flow-mod. *)
let prop_agent_stores_truthful =
  QCheck.Test.make ~name:"agent metric stores truthful" ~count:20 arb_scenario
    (fun (seed, n, _) ->
      let rules = Dataset.generate Dataset.FW5 ~seed ~n:(2 * n) in
      let stores = ref [] in
      let fr_o backend ~graph ~tcam =
        let st = Greedy.create ~backend ~graph ~tcam () in
        stores := [ Greedy.store st ];
        Greedy.algo st
      and separated backend delete_mode ~graph ~tcam =
        let st = Separated.create ~backend ~delete_mode ~graph ~tcam () in
        stores := [ Separated.up_store st; Separated.down_store st ];
        Separated.algo st
      in
      List.for_all
        (fun (kind, scheduler) ->
          let agent = Agent.create ~kind ~scheduler ~capacity:(3 * n) () in
          let graph = Agent.graph agent and tcam = Agent.tcam agent in
          let rng = Rng.create ~seed:(seed + 5) in
          let truthful () = stores_truthful !stores graph tcam in
          let live = ref [] in
          let ok = ref true in
          let pick () = List.nth !live (Rng.int rng (List.length !live)) in
          Array.iteri
            (fun i (r : Rule.t) ->
              if i = n then
                Agent.set_fault agent
                  (Some
                     (Fault.create ~fail_prob:0.1
                        ~stuck:[ Rng.int rng (3 * n); Rng.int rng (3 * n) ]
                        ~seed:(seed + 7) ()))
              else if i = 3 * n / 2 then begin
                (* Heal: the probe revives every row the faults condemned. *)
                Agent.set_fault agent None;
                ignore (Agent.probe_dead agent);
                ok := !ok && Agent.dead_rows agent = 0 && truthful ()
              end;
              (* Remove a random live rule before one add in three, and
                 rewrite one's action before one in four. *)
              (if !live <> [] && Rng.int rng 3 = 0 then
                 let id = pick () in
                 ignore (Agent.apply agent (Agent.Remove { id }));
                 if Agent.rule agent id = None then
                   live := List.filter (( <> ) id) !live);
              ok := !ok && truthful ();
              (if !live <> [] && Rng.int rng 4 = 0 then
                 let id = pick () in
                 ignore
                   (Agent.apply agent
                      (Agent.Set_action { id; action = Rule.Forward i }));
                 if Agent.rule agent id = None then
                   live := List.filter (( <> ) id) !live);
              ok := !ok && truthful ();
              if Agent.apply agent (Agent.Add r) = Ok () then live := r.Rule.id :: !live;
              ok := !ok && truthful ())
            rules;
          !ok && !live <> [])
        [
          (Firmware.FR_O Store.Bit_backend, fr_o Store.Bit_backend);
          (Firmware.FR_O Store.Array_backend, fr_o Store.Array_backend);
          (Firmware.FR_SD Store.Bit_backend, separated Store.Bit_backend Separated.Dirty);
          (Firmware.FR_SB Store.Bit_backend, separated Store.Bit_backend Separated.Balance);
          (Firmware.FR_SB Store.Array_backend, separated Store.Array_backend Separated.Balance);
        ])

(* A fault that cuts an insert chain after its first move leaves that
   move's source vacated and never written again; the stores must see it
   free.  Rows take two strikes to die here, so the struck source stays
   a live row whose metric counts. *)
let prop_truncated_chain_truthful =
  QCheck.Test.make ~name:"truncated chain leaves stores truthful" ~count:20
    arb_scenario (fun (seed, n, _) ->
      let table = Dataset.build_table Dataset.FW5 ~seed ~n in
      let rng = Rng.create ~seed:(seed + 2) in
      let stream =
        Updates.generate rng ~live:(Array.to_list table.Dataset.order) ~count:(2 * n)
          ~with_deletes:false ~id_base:(n + 1)
      in
      let tcam =
        Layout.place Layout.Original ~tcam_size:(3 * n) ~order:table.Dataset.order
      in
      Tcam.adopt_deadmap tcam (Deadmap.create ~threshold:2 ~size:(Tcam.size tcam) ());
      let graph = Graph.copy table.Dataset.graph in
      List.for_all
        (fun backend ->
          let graph = Graph.copy graph and tcam = Tcam.copy tcam in
          let st = Greedy.create ~backend ~graph ~tcam () in
          let algo = Greedy.algo st in
          (* Replay the stream up to the first chain with a move. *)
          let cut = ref false in
          List.iter
            (fun u ->
              if not !cut then
                match Updates.resolve graph tcam u with
                | Updates.R_insert { id; deps; dependents } as r -> (
                    Updates.apply_graph graph r;
                    match algo.Algo.schedule_insert ~rule_id:id ~deps ~dependents with
                    | Ok (first :: Op.Insert { addr; _ } :: _) ->
                        (* The second write fails at the source the first
                           move vacated: only the first op lands. *)
                        Tcam.apply_sequence tcam [ first ];
                        ignore (Tcam.note_write_failure tcam ~addr);
                        algo.Algo.after_apply [ first ];
                        Graph.remove_node graph id;
                        cut := true
                    | Ok ops ->
                        Tcam.apply_sequence tcam ops;
                        algo.Algo.after_apply ops
                    | Error _ -> Graph.remove_node graph id)
                | Updates.R_delete _ -> ())
            stream;
          QCheck.assume !cut;
          stores_truthful [ Greedy.store st ] graph tcam)
        [ Store.Bit_backend; Store.Array_backend ])

(* Every sequence any scheduler emits must be intermediate-state safe: no
   live-entry clobbering, dependency order intact after every single op
   (Check simulates op by op). *)
let prop_sequences_intermediate_safe =
  QCheck.Test.make ~name:"sequences are intermediate-state safe" ~count:20
    arb_scenario (fun (seed, n, _) ->
      let table = Dataset.build_table Dataset.FW4 ~seed ~n in
      let rng = Rng.create ~seed:(seed + 3) in
      let stream =
        Updates.generate rng ~live:(Array.to_list table.Dataset.order) ~count:n
          ~with_deletes:true ~id_base:(10 * n)
      in
      List.for_all
        (fun kind ->
          let run =
            Firmware.create ~check_invariant:false kind ~table ~tcam_size:(4 * n) ()
          in
          let graph = Firmware.graph run and tcam = Firmware.tcam run in
          let algo = Firmware.scheduler run in
          (* Re-drive the stream by hand so we can interpose Check. *)
          let ok = ref true in
          List.iter
            (fun u ->
              match Updates.resolve graph tcam u with
              | Updates.R_insert { id; deps; dependents } as r -> (
                  Updates.apply_graph graph r;
                  match algo.Algo.schedule_insert ~rule_id:id ~deps ~dependents with
                  | Ok ops ->
                      if Check.sequence graph tcam ops <> Ok () then ok := false;
                      Tcam.apply_sequence tcam ops;
                      algo.Algo.after_apply ops
                  | Error _ -> Graph.remove_node graph id)
              | Updates.R_delete { id } as r -> (
                  match algo.Algo.schedule_delete ~rule_id:id with
                  | Ok ops ->
                      if Check.sequence graph tcam ops <> Ok () then ok := false;
                      Tcam.apply_sequence tcam ops;
                      Updates.apply_graph graph r;
                      algo.Algo.after_apply ops
                  | Error _ -> ()))
            stream;
          !ok)
        [
          Firmware.Naive;
          Firmware.FR_O Store.Bit_backend;
          Firmware.FR_SB Store.Bit_backend;
        ])

let prop_ruletris_never_longer =
  QCheck.Test.make ~name:"ruletris <= greedy sequence length" ~count:40
    arb_scenario (fun (seed, n, _) ->
      let table = Dataset.build_table Dataset.ACL4 ~seed ~n in
      let tcam =
        Layout.place Layout.Original ~tcam_size:(n + 8) ~order:table.Dataset.order
      in
      let graph = Graph.copy table.Dataset.graph in
      let rng = Rng.create ~seed in
      let ids = Array.of_list (Tcam.used_ids tcam) in
      let x = Rng.pick rng ids and y = Rng.pick rng ids in
      QCheck.assume (x <> y);
      let f_a, f_b =
        if Topo.reachable graph x y then (x, y)
        else if Topo.reachable graph y x then (y, x)
        else if Tcam.addr_of tcam x < Tcam.addr_of tcam y then (x, y)
        else (y, x)
      in
      Graph.add_node graph 424242;
      Graph.add_edge graph 424242 f_b;
      Graph.add_edge graph f_a 424242;
      let greedy = Greedy.algo (Greedy.create ~graph ~tcam ()) in
      let rt = Ruletris.make ~graph ~tcam in
      match
        ( greedy.Algo.schedule_insert ~rule_id:424242 ~deps:[ f_b ] ~dependents:[ f_a ],
          rt.Algo.schedule_insert ~rule_id:424242 ~deps:[ f_b ] ~dependents:[ f_a ] )
      with
      | Ok g, Ok r -> List.length r <= List.length g
      | _ -> false)

(* --- overlap index -------------------------------------------------- *)

(* A 32-bit address field: a prefix drawn from a small pool, so rules
   share and nest prefixes, sometimes with one more cared bit after the
   first wildcard. *)
let addr_gen =
  QCheck.Gen.(
    oneofl [ 0; 1; 4; 8; 9; 16; 24; 32 ] >>= fun plen ->
    oneofl [ 0x0A0B0C0DL; 0x0A0BF00FL; 0x8A000001L; 0x0A4B0C0DL ] >>= fun v ->
    oneofl [ None; None; None; Some (Ternary.Zero, 3); Some (Ternary.One, 20) ]
    >|= fun extra ->
    let t = Ternary.prefix_of_int64 ~width:32 ~plen v in
    match extra with
    | Some (b, pos) when pos < 32 - plen -> Ternary.set t pos b
    | _ -> t)

let tuple_field_gen =
  QCheck.Gen.(
    let exact_or_any w vs =
      oneofl (None :: List.map Option.some vs) >|= function
      | None -> Ternary.any w
      | Some v -> Ternary.exact_of_int64 ~width:w (Int64.of_int v)
    in
    addr_gen >>= fun src_ip ->
    addr_gen >>= fun dst_ip ->
    exact_or_any 16 [ 80; 443 ] >>= fun src_port ->
    exact_or_any 16 [ 80 ] >>= fun dst_port ->
    exact_or_any 8 [ 6; 17 ] >|= fun proto ->
    Header.pack { Header.src_ip; dst_ip; src_port; dst_port; proto })

(* Ids 0..13 are 5-tuples, 14..19 toy 10-bit rules. *)
let pool_size = 20

let index_case_gen =
  QCheck.Gen.(
    let rule i =
      (if i < 14 then tuple_field_gen else ternary_gen 10) >|= fun field ->
      Rule.make ~id:i ~field ~action:(Rule.Forward i) ~priority:0
    in
    let rec pool i acc =
      if i = pool_size then return (Array.of_list (List.rev acc))
      else rule i >>= fun r -> pool (i + 1) (r :: acc)
    in
    pool 0 [] >>= fun rules ->
    list_size (int_range 1 40) (pair bool (int_bound (pool_size - 1))) >|= fun ops ->
    (rules, ops))

let arb_index_case =
  QCheck.make
    ~print:(fun (rules, ops) ->
      String.concat "\n"
        (Array.to_list
           (Array.map
              (fun (r : Rule.t) ->
                Printf.sprintf "%d: %s" r.Rule.id (Ternary.to_string r.Rule.field))
              rules)
        @ List.map (fun (add, i) -> Printf.sprintf "%s %d" (if add then "add" else "remove") i) ops))
    index_case_gen

(* Every pool rule as a query, plus its source- and destination-wildcard
   variants under a fresh id. *)
let index_queries rules =
  Array.to_list rules
  |> List.concat_map (fun (r : Rule.t) ->
         if Ternary.width r.Rule.field <> Header.total_width then [ r ]
         else
           let f = Header.unpack r.Rule.field in
           let variant id spec = Rule.make ~id ~field:(Header.pack spec) ~action:Rule.Drop ~priority:0 in
           [
             r;
             variant 1000 { f with Header.src_ip = Ternary.any 32 };
             variant 1001 { f with Header.dst_ip = Ternary.any 32 };
             variant 1002 { f with Header.src_ip = Ternary.any 32; dst_ip = Ternary.any 32 };
           ])

let prop_overlap_index_vs_brute_force =
  QCheck.Test.make ~name:"overlap index = brute force across add/remove/re-add"
    ~count:200 arb_index_case (fun (rules, ops) ->
      let idx = Overlap_index.create () in
      let present = Array.make pool_size false in
      let queries = index_queries rules in
      let ids l = List.sort Int.compare (List.map (fun (r : Rule.t) -> r.Rule.id) l) in
      List.for_all
        (fun (add, i) ->
          if add then Overlap_index.add idx rules.(i) else Overlap_index.remove idx rules.(i);
          present.(i) <- add;
          let expect (q : Rule.t) =
            Array.to_list rules
            |> List.filter (fun (r : Rule.t) ->
                   present.(r.Rule.id) && r.Rule.id <> q.Rule.id
                   && Ternary.width r.Rule.field = Ternary.width q.Rule.field
                   && Rule.overlaps q r)
            |> ids
          in
          Overlap_index.length idx = Array.fold_left (fun n p -> if p then n + 1 else n) 0 present
          && List.for_all
               (fun q -> ids (Overlap_index.overlapping idx q) = expect q)
               queries)
        ops)

let to_alcotest tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "props-ternary",
      to_alcotest
        [
          prop_overlap_symmetric;
          prop_subsumes_implies_overlap;
          prop_intersect_members;
          prop_sampled_member_matches;
          prop_overlap_iff_shared_member;
        ] );
    ( "props-compiler",
      to_alcotest
        [ prop_compile_acyclic_and_covering; prop_closure_covers_across_churn ] );
    ("props-bitree", to_alcotest [ prop_min_tree_vs_naive ]);
    ("props-overlap", to_alcotest [ prop_overlap_index_vs_brute_force ]);
    ( "props-schedulers",
      to_alcotest
        (prop_invariant_all_algos
        @ [
            prop_membership_agreement;
            prop_metric_stores_truthful;
            prop_agent_stores_truthful;
            prop_truncated_chain_truthful;
            prop_sequences_intermediate_safe;
            prop_ruletris_never_longer;
          ]) );
  ]
