(* Tests for the degraded-hardware conformance oracle: a seeded 10%-dead
   stuck bank on one shard, every scheduler driven through discovery /
   hole-stepping / overflow diverts / the probe-drill heal, certified
   against a never-faulted twin — sequentially and under the parallel
   drain path. *)

open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The default degraded lane: a 10% stuck bank on shard 0 of 3. *)
let stuck = Oracle.Stuck { shards = 3; shard = 0; frac = 0.10 }

let test_degraded_oracle_clean () =
  let trace =
    Trace.generate ~kind:Dataset.ACL4 ~seed:31 ~initial:30 ~pool:60
      ~capacity:240 ~events:80 ()
  in
  let r = Oracle.run_service ~probes:6 ~batch:4 stuck trace in
  if not (Oracle.service_clean r) then
    Alcotest.failf "degraded oracle diverged:@.%a" Oracle.pp_service_report r;
  check "stuck bank is non-empty" true (r.Oracle.seeded_dead > 0);
  List.iter
    (fun c ->
      let name = c.Oracle.sched in
      check (name ^ ": discovery condemned rows") true (c.Oracle.dead_max > 0);
      check_int (name ^ ": nothing shed") 0 c.Oracle.shed;
      check (name ^ ": the heal revived the bank") true
        (c.Oracle.rows_recovered > 0);
      check (name ^ ": converged in bounded flushes") true
        (c.Oracle.heal_flushes > 0))
    r.Oracle.lanes

let test_degraded_validation () =
  let trace =
    Trace.generate ~kind:Dataset.ACL4 ~seed:33 ~initial:10 ~pool:20
      ~capacity:120 ~events:10 ()
  in
  let rejects ?batch fault =
    match Oracle.run_service ?batch fault trace with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let stuck_on ~shards ~shard frac = Oracle.Stuck { shards; shard; frac } in
  check "batch must be positive" true (rejects ~batch:0 stuck);
  check "needs a shard to divert to" true
    (rejects (stuck_on ~shards:1 ~shard:0 0.10));
  check "fault shard must exist" true
    (rejects (stuck_on ~shards:3 ~shard:3 0.10));
  check "dead_frac below 1" true (rejects (stuck_on ~shards:3 ~shard:0 1.0));
  check "dead_frac above 0" true (rejects (stuck_on ~shards:3 ~shard:0 0.0))

(* The drill must be deterministic across drain parallelism: the probe
   epilogue runs after the join barrier, so one domain and four must
   produce identical columns. *)
let test_degraded_domains_agree () =
  let trace =
    Trace.generate ~kind:Dataset.ACL4 ~seed:32 ~initial:24 ~pool:48
      ~capacity:200 ~events:60 ()
  in
  let fingerprint r =
    List.map
      (fun c ->
        ( c.Oracle.sched,
          c.Oracle.applied_ops,
          c.Oracle.shed,
          c.Oracle.dead_max,
          c.Oracle.rows_recovered,
          c.Oracle.heal_flushes ))
      r.Oracle.lanes
  in
  let r1 = Oracle.run_service ~probes:4 ~domains:1 stuck trace in
  let r4 = Oracle.run_service ~probes:4 ~domains:4 stuck trace in
  check "sequential run clean" true (Oracle.service_clean r1);
  check "parallel run clean" true (Oracle.service_clean r4);
  check "columns agree across domain counts" true
    (fingerprint r1 = fingerprint r4)

(* Pinned from the random-bank property below (seed=254 dead=13%): a
   Set_action on a dead row relocates through Remove + Add, and the re-Add
   hit a second, not yet condemned stuck row.  The rule must survive the
   failed attempt instead of being dropped after its Remove landed. *)
let test_relocation_keeps_rule () =
  let trace =
    Trace.generate ~kind:Dataset.ACL4 ~seed:254 ~initial:20 ~pool:40
      ~capacity:160 ~events:40 ()
  in
  let r =
    Oracle.run_service ~probes:4
      (Oracle.Stuck { shards = 3; shard = 0; frac = 0.13 })
      trace
  in
  if not (Oracle.service_clean r) then
    Alcotest.failf "degraded oracle diverged:@.%a" Oracle.pp_service_report r

(* Random seeds and dead fractions: the certification is not tuned to one
   lucky bank. *)
let prop_degraded_random_banks =
  QCheck.Test.make ~name:"degraded oracle stays clean over random banks"
    ~count:4
    (QCheck.make
       ~print:(fun (seed, pct) -> Printf.sprintf "seed=%d dead=%d%%" seed pct)
       QCheck.Gen.(pair (int_bound 1000) (int_range 5 15)))
    (fun (seed, pct) ->
      let trace =
        Trace.generate ~kind:Dataset.ACL4 ~seed ~initial:20 ~pool:40
          ~capacity:160 ~events:40 ()
      in
      let r =
        Oracle.run_service ~probes:4
          (Oracle.Stuck
             { shards = 3; shard = 0; frac = float_of_int pct /. 100.0 })
          trace
      in
      Oracle.service_clean r)

let suite =
  [
    ( "degraded",
      [
        Alcotest.test_case "oracle clean at 10% dead" `Quick
          test_degraded_oracle_clean;
        Alcotest.test_case "parameter validation" `Quick test_degraded_validation;
        Alcotest.test_case "domains 1 and 4 agree" `Quick
          test_degraded_domains_agree;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_degraded_random_banks ]
      @ [
          Alcotest.test_case "relocation keeps the rule (seed 254)" `Quick
            test_relocation_keeps_rule;
        ] );
  ]
