open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_empty_summary () =
  let s = Measure.summarize [||] in
  check_int "count" 0 s.Measure.count;
  check_float "mean" 0.0 s.Measure.mean

let test_basic_summary () =
  let s = Measure.summarize [| 3.0; 1.0; 2.0 |] in
  check_int "count" 3 s.Measure.count;
  check_float "total" 6.0 s.Measure.total;
  check_float "mean" 2.0 s.Measure.mean;
  check_float "min" 1.0 s.Measure.min;
  check_float "max" 3.0 s.Measure.max;
  check_float "p50" 2.0 s.Measure.p50

let test_percentiles () =
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let s = Measure.summarize samples in
  check_float "p50" 50.0 s.Measure.p50;
  check_float "p95" 95.0 s.Measure.p95;
  check_float "p99" 99.0 s.Measure.p99;
  check_float "max" 100.0 s.Measure.max

let test_singleton () =
  let s = Measure.summarize [| 7.5 |] in
  check_float "all equal" 7.5 s.Measure.p99;
  check_float "mean" 7.5 s.Measure.mean

let test_series_growth () =
  let sr = Measure.Series.create () in
  for i = 1 to 1000 do
    Measure.Series.add sr (float_of_int i)
  done;
  let a = Measure.Series.to_array sr in
  check_int "snapshot length" 1000 (Array.length a);
  check "arrival order" true
    (Array.for_all2 ( = ) a (Array.init 1000 (fun i -> float_of_int (i + 1))))

let test_time_ms () =
  let x, dt = Measure.time_ms (fun () -> 42) in
  check_int "result" 42 x;
  check "non-negative" true (dt >= 0.0)

let test_summarize_does_not_mutate () =
  let samples = [| 3.0; 1.0; 2.0 |] in
  ignore (Measure.summarize samples);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] samples

(* --- Hist ------------------------------------------------------------ *)

let hist_of samples =
  let h = Measure.Hist.create () in
  Array.iter (Measure.Hist.record h) samples;
  h

let test_hist_empty () =
  let s = Measure.Hist.summary (Measure.Hist.create ()) in
  check_int "count" 0 s.Measure.count;
  check "quantile of nothing" true (s.Measure.p50 = 0.0 && s.Measure.p999 = 0.0)

let test_hist_quantiles () =
  (* Geometric buckets at ratio 2^(1/8): every quantile lands within
     ~9% of the true value. *)
  let s =
    Measure.Hist.summary
      (hist_of (Array.append (Array.make 990 1_000.0) (Array.make 10 1e6)))
  in
  let near x v = v > x /. 1.1 && v < x *. 1.1 in
  check "p50 near 1us" true (near 1_000.0 s.Measure.p50);
  check "p99 still 1us" true (near 1_000.0 s.Measure.p99);
  check "p999 catches the tail" true (near 1_000_000.0 s.Measure.p999);
  check "mean between" true
    (s.Measure.mean > 1_000.0 && s.Measure.mean < 1_000_000.0);
  check_float "max exact" 1_000_000.0 s.Measure.max;
  check_int "count" 1_000 s.Measure.count;
  (* A constant distribution reads back exactly (the clamp to [min, max]). *)
  let c = Measure.Hist.summary (hist_of (Array.make 50 0.6)) in
  check "constant exact" true
    (c.Measure.p50 = 0.6 && c.Measure.p99 = 0.6 && c.Measure.p999 = 0.6)

let test_hist_merge () =
  let a = hist_of (Array.make 50 500.0) in
  Measure.Hist.merge ~into:a (hist_of (Array.make 50 8_000.0));
  let s = Measure.Hist.summary a in
  check_int "merged count" 100 s.Measure.count;
  check_float "merged max" 8_000.0 s.Measure.max;
  check "merged p50 spans both" true
    (s.Measure.p50 > 450.0 && s.Measure.p50 < 9_000.0)

(* Samples over the grid's exact range [2^-32, 2^32), log-uniform so every
   scale is hit, with zeros and repeats mixed in. *)
let arb_samples =
  let sample =
    QCheck.Gen.(
      frequency
        [
          (1, return 0.0);
          (8, map (fun e -> Float.pow 2.0 e) (float_range (-31.0) 31.0));
          (2, oneofl [ 0.6; 1.0; 3.0 ]);
        ])
  in
  QCheck.make
    ~print:QCheck.Print.(pair (array float) (array float))
    QCheck.Gen.(
      pair (array_size (int_range 1 300) sample)
        (array_size (int_range 0 100) sample))

(* Against the exact nearest-rank summary: count, min and max equal, the
   total equal up to summation order, every quantile inside [min, max]
   and within one bucket ratio; and merging equals recording both. *)
let prop_hist_vs_exact =
  QCheck.Test.make ~name:"hist = exact within a bucket" ~count:300 arb_samples
    (fun (xs, ys) ->
      let open Measure in
      let h = Hist.summary (hist_of xs) and e = summarize xs in
      let ratio = Float.pow 2.0 (1.0 /. 8.0) *. (1.0 +. 1e-9) in
      let within q x =
        q >= e.min && q <= e.max && q <= x *. ratio && x <= q *. ratio
      in
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.abs b in
      let merged = hist_of xs in
      Hist.merge ~into:merged (hist_of ys);
      let m = Hist.summary merged
      and both = Hist.summary (hist_of (Array.append xs ys)) in
      h.count = e.count && close h.total e.total && h.min = e.min
      && h.max = e.max
      && List.for_all2 within
           [ h.p50; h.p95; h.p99; h.p999 ]
           [ e.p50; e.p95; e.p99; e.p999 ]
      && { m with total = 0.0; mean = 0.0 } = { both with total = 0.0; mean = 0.0 }
      && close m.total both.total)

let suite =
  [
    ( "measure",
      [
        Alcotest.test_case "empty" `Quick test_empty_summary;
        Alcotest.test_case "basic" `Quick test_basic_summary;
        Alcotest.test_case "percentiles" `Quick test_percentiles;
        Alcotest.test_case "singleton" `Quick test_singleton;
        Alcotest.test_case "series growth" `Quick test_series_growth;
        Alcotest.test_case "time_ms" `Quick test_time_ms;
        Alcotest.test_case "no mutation" `Quick test_summarize_does_not_mutate;
        Alcotest.test_case "hist empty" `Quick test_hist_empty;
        Alcotest.test_case "hist quantiles" `Quick test_hist_quantiles;
        Alcotest.test_case "hist merge" `Quick test_hist_merge;
        QCheck_alcotest.to_alcotest prop_hist_vs_exact;
      ] );
  ]
