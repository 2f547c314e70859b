open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_updates_for () =
  check_int "250" 250 (Experiment.updates_for 250);
  check_int "500" 500 (Experiment.updates_for 500);
  check_int "1000" 1000 (Experiment.updates_for 1_000);
  check_int "40k" 1000 (Experiment.updates_for 40_000)

let test_default_participation () =
  check "naive small" true (Experiment.default_participation Firmware.Naive 500 = Experiment.All);
  check "naive 20k skipped" true
    (Experiment.default_participation Firmware.Naive 20_000 = Experiment.Skip);
  check "naive mid capped" true
    (match Experiment.default_participation Firmware.Naive 4_000 with
    | Experiment.Cap _ -> true
    | _ -> false);
  check "fr never capped" true
    (Experiment.default_participation (Firmware.FR_O Store.Bit_backend) 40_000
    = Experiment.All)

let test_table_cached_identity () =
  let a = Experiment.table_cached Dataset.ACL5 ~seed:3 ~n:200 in
  let b = Experiment.table_cached Dataset.ACL5 ~seed:3 ~n:200 in
  check "same table object" true (a == b)

let test_stream_deterministic () =
  let spec =
    { Experiment.kind = Dataset.ACL5; n = 200; updates = 50; with_deletes = true; seed = 3 }
  in
  let s1 = Experiment.stream_for spec and s2 = Experiment.stream_for spec in
  check "identical streams" true (s1 = s2);
  check_int "length" 50 (List.length s1)

let test_run_one_counts () =
  let spec =
    { Experiment.kind = Dataset.ACL5; n = 200; updates = 60; with_deletes = false; seed = 4 }
  in
  let table = Experiment.table_cached Dataset.ACL5 ~seed:4 ~n:200 in
  let stream = Experiment.stream_for spec in
  let row = Experiment.run_one ~table ~stream (Firmware.FR_O Store.Bit_backend) in
  check_int "updates run" 60 row.Experiment.updates_run;
  check_int "no failures" 0 row.Experiment.failed;
  check "writes >= updates" true (row.Experiment.writes >= 60);
  check "fw timed" true (row.Experiment.fw.Measure.count = 60)

let test_run_one_cap () =
  let spec =
    { Experiment.kind = Dataset.ACL5; n = 200; updates = 60; with_deletes = false; seed = 4 }
  in
  let table = Experiment.table_cached Dataset.ACL5 ~seed:4 ~n:200 in
  let stream = Experiment.stream_for spec in
  let row = Experiment.run_one ~cap:10 ~table ~stream (Firmware.FR_O Store.Bit_backend) in
  check_int "capped" 10 row.Experiment.updates_run

let test_run_spec_respects_participation () =
  let spec =
    { Experiment.kind = Dataset.ACL5; n = 200; updates = 30; with_deletes = true; seed = 5 }
  in
  let rows =
    Experiment.run_spec spec
      ~participation:(fun kind _ ->
        match kind with Firmware.Naive -> Experiment.Skip | _ -> Experiment.All)
      ~algos:[ Firmware.Naive; Firmware.FR_O Store.Bit_backend ]
  in
  check_int "naive skipped" 1 (List.length rows);
  check "fr present" true
    (List.exists (fun (r : Experiment.row) -> r.Experiment.algo = "fr-o") rows)

let test_csv_roundtrip_shape () =
  let spec =
    { Experiment.kind = Dataset.ACL5; n = 200; updates = 20; with_deletes = false; seed = 6 }
  in
  let rows = Experiment.run_spec spec ~algos:[ Firmware.FR_O Store.Bit_backend ] in
  let row = List.hd rows in
  let csv = Report.row_to_csv row in
  let n_fields = List.length (String.split_on_char ',' csv) in
  let n_cols = List.length (String.split_on_char ',' Report.csv_header) in
  check_int "csv fields match header" n_cols n_fields

let suite =
  [
    ( "experiment",
      [
        Alcotest.test_case "updates_for" `Quick test_updates_for;
        Alcotest.test_case "default participation" `Quick test_default_participation;
        Alcotest.test_case "table cache identity" `Quick test_table_cached_identity;
        Alcotest.test_case "stream deterministic" `Quick test_stream_deterministic;
        Alcotest.test_case "run_one counts" `Quick test_run_one_counts;
        Alcotest.test_case "run_one cap" `Quick test_run_one_cap;
        Alcotest.test_case "participation respected" `Quick test_run_spec_respects_participation;
        Alcotest.test_case "csv shape" `Quick test_csv_roundtrip_shape;
      ] );
  ]
