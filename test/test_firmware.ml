open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_table = lazy (Dataset.build_table Dataset.ACL4 ~seed:31 ~n:150)

let stream_for table ~count ~with_deletes ~seed =
  let rng = Rng.create ~seed in
  Updates.generate rng
    ~live:(Array.to_list table.Dataset.order)
    ~count ~with_deletes ~id_base:10_000

let all_kinds =
  [
    Firmware.Naive;
    Firmware.Ruletris;
    Firmware.FR_O Store.Bit_backend;
    Firmware.FR_O Store.Array_backend;
    Firmware.FR_O Store.On_demand;
    Firmware.FR_SD Store.Bit_backend;
    Firmware.FR_SB Store.Bit_backend;
  ]

let test_all_algorithms_run_clean () =
  let table = Lazy.force small_table in
  let stream = stream_for table ~count:120 ~with_deletes:true ~seed:77 in
  List.iter
    (fun kind ->
      let run = Firmware.create ~check_invariant:true kind ~table ~tcam_size:400 () in
      let failed = Firmware.exec_all run stream in
      let name = Firmware.algo_kind_name kind in
      check_int (name ^ " failures") 0 failed;
      check_int (name ^ " updates") 120 (Firmware.updates_done run);
      check (name ^ " firmware timed") true
        (Array.length (Measure.Series.to_array (Firmware.firmware_times run)) = 120);
      check (name ^ " final invariant") true
        (Tcam.check_dag_order (Firmware.tcam run) (Firmware.graph run) = Ok ()))
    all_kinds

let test_final_tables_agree_on_membership () =
  (* Whatever the algorithm, the same stream must leave the same set of
     entries stored. *)
  let table = Lazy.force small_table in
  let stream = stream_for table ~count:100 ~with_deletes:true ~seed:78 in
  let membership kind =
    let run = Firmware.create kind ~table ~tcam_size:400 () in
    ignore (Firmware.exec_all run stream);
    List.sort Int.compare (Tcam.used_ids (Firmware.tcam run))
  in
  let reference = membership Firmware.Naive in
  List.iter
    (fun kind ->
      Alcotest.(check (list int))
        (Firmware.algo_kind_name kind ^ " membership")
        reference (membership kind))
    [ Firmware.Ruletris; Firmware.FR_O Store.Bit_backend; Firmware.FR_SB Store.Bit_backend ]

let test_tcam_accounting () =
  let table = Lazy.force small_table in
  let stream = stream_for table ~count:50 ~with_deletes:false ~seed:79 in
  let run = Firmware.create (Firmware.FR_O Store.Bit_backend) ~table ~tcam_size:400 () in
  ignore (Firmware.exec_all run stream);
  (* Insert-only: at least one write per update; modelled time = writes x 0.6. *)
  check (">= 1 write per insert") true (Firmware.tcam_writes run >= 50);
  check_int "no erases" 0 (Firmware.tcam_erases run);
  Alcotest.(check (float 1e-6))
    "latency model" (0.6 *. float_of_int (Firmware.tcam_writes run))
    (Firmware.tcam_ms_total run)

let test_insert_errors_rollback () =
  (* A full TCAM makes inserts fail; the graph must not keep the node. *)
  let table = Lazy.force small_table in
  let n = Array.length table.Dataset.rules in
  let run = Firmware.create (Firmware.FR_O Store.Bit_backend) ~table ~tcam_size:n () in
  let u = Updates.Insert { id = 99_999; anchor = None } in
  (match Firmware.exec run u with
  | Ok () -> Alcotest.fail "expected failure on full TCAM"
  | Error _ -> ());
  check_int "failure counted" 1 (Firmware.failures run);
  check "node rolled back" false (Graph.mem_node (Firmware.graph run) 99_999)

let test_fr_backends_same_sequences () =
  (* The three metric back-ends must produce byte-identical behaviour:
     same moves, same final image. *)
  let table = Lazy.force small_table in
  let stream = stream_for table ~count:150 ~with_deletes:true ~seed:80 in
  let image backend =
    let run = Firmware.create (Firmware.FR_O backend) ~table ~tcam_size:400 () in
    ignore (Firmware.exec_all run stream);
    ( Firmware.tcam_writes run,
      Array.init 400 (fun a -> Tcam.read (Firmware.tcam run) a) )
  in
  let w1, img1 = image Store.On_demand in
  let w2, img2 = image Store.Array_backend in
  let w3, img3 = image Store.Bit_backend in
  check_int "writes od=arr" w1 w2;
  check_int "writes arr=bit" w2 w3;
  check "image od=arr" true (img1 = img2);
  check "image arr=bit" true (img2 = img3)

let test_contract_on_delete () =
  (* Chain a -> b -> c; deleting b with contraction must leave a -> c in
     the run's graph so later scheduling still keeps a below c. *)
  let table = Lazy.force small_table in
  let run =
    Firmware.create ~contract_on_delete:true (Firmware.FR_O Store.Bit_backend)
      ~table ~tcam_size:400 ()
  in
  let g = Firmware.graph run in
  (* Find an entry with both a dependent and a dependency. *)
  let middle =
    List.find_opt
      (fun u -> Graph.out_degree g u > 0 && Graph.in_degree g u > 0)
      (Graph.nodes g)
  in
  match middle with
  | None -> ()  (* table had no 3-chain; nothing to assert *)
  | Some b ->
      let below = List.hd (Graph.dependents g b) in
      let above = List.hd (Graph.deps g b) in
      (match Firmware.exec run (Updates.Delete { id = b }) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "delete failed: %s" e);
      check "contracted ordering kept" true (Topo.reachable g below above)

let test_layout_override () =
  (* FR-O on the interleaved layout: still correct, fewer moves per insert
     while local gaps last. *)
  let table = Lazy.force small_table in
  let stream = stream_for table ~count:60 ~with_deletes:false ~seed:81 in
  let run =
    Firmware.create ~check_invariant:true
      ~layout_override:(Layout.Interleaved 2) (Firmware.FR_O Store.Bit_backend)
      ~table ~tcam_size:600 ()
  in
  check_int "no failures" 0 (Firmware.exec_all run stream)

let suite =
  [
    ( "firmware",
      [
        Alcotest.test_case "all algorithms run clean" `Quick test_all_algorithms_run_clean;
        Alcotest.test_case "membership agreement" `Quick test_final_tables_agree_on_membership;
        Alcotest.test_case "tcam accounting" `Quick test_tcam_accounting;
        Alcotest.test_case "insert errors roll back" `Quick test_insert_errors_rollback;
        Alcotest.test_case "backends byte-identical" `Quick test_fr_backends_same_sequences;
        Alcotest.test_case "contract on delete" `Quick test_contract_on_delete;
        Alcotest.test_case "layout override" `Quick test_layout_override;
      ] );
  ]
