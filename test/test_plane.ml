(* The lookup-under-update data plane: the TupleChain-style software
   backend and the LGEN/SUT storm driver. *)

open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- software backend ----------------------------------------------- *)

let built_image ~kind ~seed ~n =
  let rules = Dataset.generate kind ~seed ~n in
  let agent = Agent.of_rules ~capacity:(3 * n) rules in
  (Tcam.image (Agent.tcam agent), Agent.rules agent)

let test_backend_shape () =
  let img, _ = built_image ~kind:Dataset.ACL4 ~seed:21 ~n:120 in
  let b = Plane_backend.of_image img in
  check_int "all entries indexed" (Image.entry_count img)
    (Plane_backend.entry_count b);
  check "grouped into fewer tuples" true
    (Plane_backend.tuple_count b <= Plane_backend.entry_count b);
  check "image kept" true (Plane_backend.image b == img)

let test_backend_agrees () =
  (* The tuple-space engine must reproduce highest-address-wins exactly,
     on in-rule packets (which exercise shadowing) and uniform ones. *)
  List.iter
    (fun kind ->
      let img, rules = built_image ~kind ~seed:23 ~n:150 in
      let b = Plane_backend.of_image img in
      let rng = Rng.create ~seed:24 in
      let bad = ref 0 in
      let probe pkt =
        let want = Image.lookup img pkt and got = Plane_backend.lookup b pkt in
        let same =
          match (want, got) with
          | None, None -> true
          | Some x, Some y -> x.Rule.id = y.Rule.id
          | _ -> false
        in
        if not same then incr bad
      in
      List.iter
        (fun (r : Rule.t) ->
          for _ = 1 to 4 do
            probe (Header.packet_in rng r.Rule.field)
          done)
        rules;
      for _ = 1 to 50 do
        probe (Header.random_packet rng)
      done;
      check_int (Dataset.to_string kind ^ " backend = image") 0 !bad)
    [ Dataset.ACL4; Dataset.FW5; Dataset.ROUTE ]

(* --- the storm ------------------------------------------------------ *)

let small_spec =
  {
    Plane.default_spec with
    Plane.n = 150;
    seed = 31;
    flows = 3_000;
    ops = 400;
    shards = 2;
    capacity = 600;
    min_lookups = 400;
    rebuild_every = 128;
  }

let test_storm_smoke () =
  let r = Plane.run ~domains:1 small_spec in
  check "storm applied ops" true (r.Plane.applied > 0);
  check "readers sampled enough" true
    (r.Plane.lookups >= small_spec.Plane.min_lookups);
  check_int "every packet tallied" r.Plane.lookups
    (r.Plane.hits + r.Plane.misses);
  check_int "every packet cross-validated" r.Plane.lookups
    (r.Plane.agree + r.Plane.disagree);
  check_int "backend never disagrees" 0 r.Plane.disagree;
  check "observed at least one epoch" true (r.Plane.epochs_seen >= 1);
  check "latency histograms populated" true
    (r.Plane.tcam_lat.Measure.count = r.Plane.lookups
    && r.Plane.soft_lat.Measure.count = r.Plane.lookups
    && r.Plane.tcam_lat.Measure.p99 >= r.Plane.tcam_lat.Measure.p50)

let test_storm_four_domains_deterministic () =
  (* The storm side is a pure function of the seed, whatever the flush
     parallelism: 1 domain and 4 domains must apply the same ops. *)
  let a = Plane.run ~domains:1 small_spec in
  let b = Plane.run ~domains:4 { small_spec with Plane.readers = 2 } in
  check_int "4 domains used" 4 b.Plane.domains;
  check_int "same applied" a.Plane.applied b.Plane.applied;
  check_int "same failed" a.Plane.failed b.Plane.failed;
  check_int "same flushes" a.Plane.flushes b.Plane.flushes;
  check_int "still no disagreement" 0 b.Plane.disagree

(* A result dump names everything needed to reproduce its storm side:
   rebuild the spec from the serialized fields alone, re-run, and demand
   the same dump back minus the wall-clock keys. *)
let test_result_json_roundtrip () =
  let strip = function
    | Telemetry.Json.Obj fields ->
        Telemetry.Json.Obj
          (List.filter
             (fun (k, _) -> not (List.mem k Plane.volatile_keys))
             fields)
    | v -> v
  in
  let get j key =
    match j with
    | Telemetry.Json.Obj fields -> (
        match List.assoc_opt key fields with
        | Some v -> v
        | None -> Alcotest.failf "dump has no field %S" key)
    | _ -> Alcotest.failf "dump is not an object"
  in
  let int j key =
    match get j key with
    | Telemetry.Json.Int i -> i
    | _ -> Alcotest.failf "field %S is not an int" key
  in
  let str j key =
    match get j key with
    | Telemetry.Json.Str s -> s
    | _ -> Alcotest.failf "field %S is not a string" key
  in
  let first = Plane.run ~algo:Firmware.Ruletris ~domains:2 small_spec in
  let dump = Plane.result_json first in
  check_int "dump records the domains used" 2 (int dump "domains");
  let spec =
    {
      Plane.kind = Option.get (Dataset.of_string (str dump "kind"));
      n = int dump "n";
      seed = int dump "seed";
      flows = int dump "flows";
      skew =
        (match get dump "skew" with
        | Telemetry.Json.Float f -> f
        | _ -> Alcotest.failf "skew is not a float");
      ops = int dump "ops";
      shards = int dump "shards";
      capacity = int dump "capacity";
      batch = int dump "batch";
      readers = int dump "readers";
      min_lookups = int dump "min_lookups";
      rebuild_every = int dump "rebuild_every";
    }
  in
  let algo = Option.get (Firmware.algo_kind_of_string (str dump "algo")) in
  let again = Plane.run ~algo ~domains:(int dump "domains") spec in
  check "recorded params reproduce the storm" true
    (Telemetry.Json.to_string (strip dump)
    = Telemetry.Json.to_string (strip (Plane.result_json again)))

let suite =
  [
    ( "plane",
      [
        Alcotest.test_case "backend shape" `Quick test_backend_shape;
        Alcotest.test_case "backend = image lookup" `Quick test_backend_agrees;
        Alcotest.test_case "storm smoke" `Quick test_storm_smoke;
        Alcotest.test_case "storm deterministic across domains" `Quick
          test_storm_four_domains_deterministic;
        Alcotest.test_case "result json roundtrip" `Quick
          test_result_json_roundtrip;
      ] );
  ]
