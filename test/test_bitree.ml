open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Min_tree --------------------------------------------------------- *)

let test_min_basic () =
  let t = Min_tree.create 8 ~init:5 in
  Min_tree.set t 3 1;
  Min_tree.set t 6 0;
  (match Min_tree.min_in t ~lo:0 ~hi:7 with
  | Some (i, v) ->
      check_int "argmin" 6 i;
      check_int "min" 0 v
  | None -> Alcotest.fail "range non-empty");
  (match Min_tree.min_in t ~lo:0 ~hi:5 with
  | Some (i, v) ->
      check_int "argmin left" 3 i;
      check_int "min left" 1 v
  | None -> Alcotest.fail "range non-empty");
  check "empty range" true (Min_tree.min_in t ~lo:5 ~hi:4 = None)

let test_min_tie_prefers_high () =
  let t = Min_tree.create 16 ~init:7 in
  Min_tree.set t 2 3;
  Min_tree.set t 9 3;
  Min_tree.set t 12 3;
  (match Min_tree.min_in t ~lo:0 ~hi:15 with
  | Some (i, _) -> check_int "highest tie wins" 12 i
  | None -> Alcotest.fail "non-empty");
  match Min_tree.min_in t ~lo:0 ~hi:10 with
  | Some (i, _) -> check_int "highest tie in subrange" 9 i
  | None -> Alcotest.fail "non-empty"

let test_min_all_equal () =
  let t = Min_tree.create 8 ~init:max_int in
  match Min_tree.min_in t ~lo:2 ~hi:6 with
  | Some (i, v) ->
      check_int "max_int value" max_int v;
      check_int "highest index" 6 i
  | None -> Alcotest.fail "non-empty"

let test_min_updates_both_directions () =
  let t = Min_tree.create 8 ~init:4 in
  Min_tree.set t 5 1;
  check_int "decreased" 1 (Option.get (Min_tree.min_value_in t ~lo:0 ~hi:7));
  Min_tree.set t 5 9;
  (* The old minimum must not linger after the value went back up. *)
  check_int "increased back" 4 (Option.get (Min_tree.min_value_in t ~lo:0 ~hi:7));
  check_int "get" 9 (Min_tree.get t 5)

let naive_min reference ~lo ~hi =
  let best_v = ref max_int and best_i = ref (-1) in
  for k = lo to hi do
    if reference.(k) <= !best_v then begin
      best_v := reference.(k);
      best_i := k
    end
  done;
  (!best_i, !best_v)

let test_min_vs_naive () =
  (* Sizes on and off a power of two: a range must never answer from a
     cell outside the array. *)
  let rng = Rng.create ~seed:4242 in
  List.iter
    (fun n ->
      let t = Min_tree.create n ~init:50 in
      let reference = Array.make n 50 in
      for _ = 1 to 1000 do
        let i = Rng.int rng n in
        let v = Rng.int rng 100 in
        Min_tree.set t i v;
        reference.(i) <- v;
        let lo = Rng.int rng n in
        let hi = Rng.int_in rng lo (n - 1) in
        let best_i, best_v = naive_min reference ~lo ~hi in
        match Min_tree.min_in t ~lo ~hi with
        | None -> Alcotest.fail "non-empty range"
        | Some (i, v) ->
            check_int "value matches naive" best_v v;
            check_int "argmin matches naive (high ties)" best_i i
      done;
      Alcotest.(check (array int)) "contents match naive" reference
        (Min_tree.to_array t))
    [ 1; 7; 8; 33; 100 ]

let test_min_lockstep_sizes () =
  (* A narrow value range makes ties frequent: every (index, value)
     answer must equal a plain array's scan, highest index first. *)
  let rng = Rng.create ~seed:9191 in
  List.iter
    (fun n ->
      let t = Min_tree.create n ~init:13 in
      let reference = Array.make n 13 in
      for _ = 1 to 400 do
        let i = Rng.int rng n and v = Rng.int rng 40 in
        Min_tree.set t i v;
        reference.(i) <- v;
        let lo = Rng.int rng n in
        let hi = Rng.int_in rng lo (n - 1) in
        check "same answer" true
          (Min_tree.min_in t ~lo ~hi = Some (naive_min reference ~lo ~hi))
      done;
      Alcotest.(check (array int)) "same contents" reference (Min_tree.to_array t))
    [ 1; 7; 8; 33; 100 ]

let test_min_non_pow2 () =
  (* Sizes straddling the power-of-two padding must never leak padding
     cells into answers. *)
  let t = Min_tree.create 5 ~init:max_int in
  match Min_tree.min_in t ~lo:0 ~hi:4 with
  | Some (i, v) ->
      check_int "real cell" 4 i;
      check_int "max_int ok" max_int v;
      check "in range" true (i >= 0 && i < 5)
  | None -> Alcotest.fail "non-empty"

let test_min_clamping () =
  let t = Min_tree.create 4 ~init:2 in
  Min_tree.set t 0 1;
  match Min_tree.min_in t ~lo:(-5) ~hi:99 with
  | Some (i, v) ->
      check_int "clamped argmin" 0 i;
      check_int "clamped min" 1 v
  | None -> Alcotest.fail "non-empty"

let test_min_snapshot () =
  let t = Min_tree.create 4 ~init:0 in
  Min_tree.set t 1 7;
  Alcotest.(check (array int)) "to_array" [| 0; 7; 0; 0 |] (Min_tree.to_array t)

let suite =
  [
    ( "min-tree",
      [
        Alcotest.test_case "basic min/argmin" `Quick test_min_basic;
        Alcotest.test_case "ties prefer high index" `Quick test_min_tie_prefers_high;
        Alcotest.test_case "all-max_int range" `Quick test_min_all_equal;
        Alcotest.test_case "update up and down" `Quick test_min_updates_both_directions;
        Alcotest.test_case "random vs naive" `Quick test_min_vs_naive;
        Alcotest.test_case "lockstep with naive array" `Quick test_min_lockstep_sizes;
        Alcotest.test_case "non-power-of-two sizes" `Quick test_min_non_pow2;
        Alcotest.test_case "range clamping" `Quick test_min_clamping;
        Alcotest.test_case "snapshot" `Quick test_min_snapshot;
      ] );
  ]
