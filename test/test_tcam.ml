open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_create_read () =
  let t = Tcam.create ~size:8 () in
  check_int "size" 8 (Tcam.size t);
  check_int "free" 8 (Tcam.free_count t);
  check "slot free" true (Tcam.read t 0 = Tcam.Free);
  Alcotest.check_raises "oob" (Invalid_argument "Tcam: address out of range")
    (fun () -> ignore (Tcam.read t 8))

let test_write_erase () =
  let t = Tcam.create ~size:8 () in
  Tcam.write t ~rule_id:42 ~addr:3;
  check "used" true (Tcam.read t 3 = Tcam.Used 42);
  check "addr_of" true (Tcam.addr_of t 42 = Some 3);
  check_int "used count" 1 (Tcam.used_count t);
  Tcam.erase t ~addr:3;
  check "freed" true (Tcam.read t 3 = Tcam.Free);
  check "index cleared" true (Tcam.addr_of t 42 = None);
  check_int "ops" 2 (Tcam.ops_issued t)

let test_move_semantics () =
  let t = Tcam.create ~size:8 () in
  Tcam.write t ~rule_id:1 ~addr:2;
  Tcam.write t ~rule_id:1 ~addr:5;
  check "new slot" true (Tcam.read t 5 = Tcam.Used 1);
  check "old slot freed" true (Tcam.read t 2 = Tcam.Free);
  check_int "one move" 1 (Tcam.moves_issued t);
  check_int "used stays 1" 1 (Tcam.used_count t)

let test_clobber_rejected () =
  let t = Tcam.create ~size:8 () in
  Tcam.write t ~rule_id:1 ~addr:2;
  Alcotest.check_raises "clobber"
    (Invalid_argument "Tcam.write: address 0x2 already holds entry 1")
    (fun () -> Tcam.write t ~rule_id:9 ~addr:2);
  (* Rewriting the same entry in place is fine. *)
  Tcam.write t ~rule_id:1 ~addr:2;
  check_int "still one entry" 1 (Tcam.used_count t)

let test_apply_sequence_chain () =
  (* Chain in application order: the free-slot op first. *)
  let t = Tcam.create ~size:8 () in
  Tcam.write t ~rule_id:10 ~addr:0;
  Tcam.write t ~rule_id:11 ~addr:1;
  let ops =
    [ Op.insert ~rule_id:11 ~addr:2; Op.insert ~rule_id:10 ~addr:1; Op.insert ~rule_id:99 ~addr:0 ]
  in
  Tcam.apply_sequence t ops;
  check "99 at 0" true (Tcam.read t 0 = Tcam.Used 99);
  check "10 at 1" true (Tcam.read t 1 = Tcam.Used 10);
  check "11 at 2" true (Tcam.read t 2 = Tcam.Used 11)

let test_iter_and_scans () =
  let t = Tcam.create ~size:8 () in
  Tcam.write t ~rule_id:5 ~addr:1;
  Tcam.write t ~rule_id:6 ~addr:4;
  Alcotest.(check (list int)) "used ids in addr order" [ 5; 6 ] (Tcam.used_ids t);
  check "highest" true (Tcam.highest_used t = Some 4);
  check "lowest free" true (Tcam.lowest_free t = Some 0)

let test_lookup_highest_wins () =
  (* Highest-address match wins, per TCAM semantics. *)
  let mk id s prio =
    Rule.make ~id ~field:(Ternary.of_string s) ~action:(Rule.Forward id) ~priority:prio
  in
  let r0 = mk 0 (String.make 104 '*') 0 in
  let spec =
    {
      Header.wildcard with
      Header.proto = Ternary.exact_of_int64 ~width:8 6L;
    }
  in
  let r1 = Rule.make ~id:1 ~field:(Header.pack spec) ~action:Rule.Drop ~priority:9 in
  let rules = function 0 -> r0 | 1 -> r1 | _ -> assert false in
  let t = Tcam.create ~size:4 () in
  Tcam.write t ~rule_id:0 ~addr:0;
  Tcam.write t ~rule_id:1 ~addr:2;
  let tcp =
    { Header.p_src_ip = 0L; p_dst_ip = 0L; p_src_port = 0; p_dst_port = 0; p_proto = 6 }
  in
  check "tcp hits specific" true (Tcam.lookup t ~rules tcp = Some 1);
  check "udp hits default" true
    (Tcam.lookup t ~rules { tcp with Header.p_proto = 17 } = Some 0);
  Tcam.erase t ~addr:0;
  check "no default" true (Tcam.lookup t ~rules { tcp with Header.p_proto = 17 } = None)

let test_check_dag_order () =
  let g = Graph.create () in
  Graph.add_edge g 1 2;
  let t = Tcam.create ~size:4 () in
  Tcam.write t ~rule_id:1 ~addr:0;
  Tcam.write t ~rule_id:2 ~addr:3;
  check "ok order" true (Tcam.check_dag_order t g = Ok ());
  (* Swap: violation. *)
  Tcam.erase t ~addr:0;
  Tcam.erase t ~addr:3;
  Tcam.write t ~rule_id:1 ~addr:3;
  Tcam.write t ~rule_id:2 ~addr:0;
  check "violation detected" true (Result.is_error (Tcam.check_dag_order t g))

let test_check_dag_order_partial () =
  (* Absent entries are not constrained. *)
  let g = Graph.create () in
  Graph.add_edge g 1 2;
  let t = Tcam.create ~size:4 () in
  Tcam.write t ~rule_id:1 ~addr:3;
  check "partial ok" true (Tcam.check_dag_order t g = Ok ())

let test_copy () =
  let t = Tcam.create ~size:4 () in
  Tcam.write t ~rule_id:7 ~addr:1;
  let t' = Tcam.copy t in
  Tcam.erase t' ~addr:1;
  check "original intact" true (Tcam.read t 1 = Tcam.Used 7);
  check "copy changed" true (Tcam.read t' 1 = Tcam.Free)

let suite =
  [
    ( "tcam",
      [
        Alcotest.test_case "create/read" `Quick test_create_read;
        Alcotest.test_case "write/erase" `Quick test_write_erase;
        Alcotest.test_case "move semantics" `Quick test_move_semantics;
        Alcotest.test_case "clobber rejected" `Quick test_clobber_rejected;
        Alcotest.test_case "apply_sequence chain" `Quick test_apply_sequence_chain;
        Alcotest.test_case "iterators & scans" `Quick test_iter_and_scans;
        Alcotest.test_case "lookup highest wins" `Quick test_lookup_highest_wins;
        Alcotest.test_case "dag-order check" `Quick test_check_dag_order;
        Alcotest.test_case "dag-order partial" `Quick test_check_dag_order_partial;
        Alcotest.test_case "copy isolation" `Quick test_copy;
      ] );
  ]
