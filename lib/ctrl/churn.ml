module Rng = Fr_prng.Rng
module Rule = Fr_tern.Rule
module Dataset = Fr_workload.Dataset
module Agent = Fr_switch.Agent
module Measure = Fr_switch.Measure

type spec = {
  kind : Dataset.kind;
  initial : int;
  ops : int;
  shards : int;
  capacity : int;
  batch : int;
  seed : int;
}

type result = {
  service : Service.t;
  submitted : int;
  applied : int;
  failed : int;
  coalesced : int;
  flushes : int;
  retries : int;
  shed : int;
  breaker_opens : int;
  diverted : int;
  rebalanced : int;
  restarts : int;
  flush_wall_ms : Measure.summary;
}

exception Stop

(* -- chaos plans ------------------------------------------------------ *)

type chaos_action =
  | Chaos_fault of Fr_tcam.Fault.spec
  | Chaos_slow of float
  | Chaos_restart
  | Chaos_heal

type chaos_event = { at_flush : int; shard : int; action : chaos_action }

let chaos_action_to_string = function
  | Chaos_fault spec -> "fault " ^ Fr_tcam.Fault.spec_to_string spec
  | Chaos_slow ms -> Printf.sprintf "slow %g ms/op" ms
  | Chaos_restart -> "restart"
  | Chaos_heal -> "heal"

let pp_chaos_event ppf e =
  Format.fprintf ppf "@flush %d: shard %d %s" e.at_flush e.shard
    (chaos_action_to_string e.action)

(* A seeded fault/heal schedule.  Faulted shards are tracked so heals
   target something actually sick and fault events prefer healthy victims
   — a plan that keeps poking the same dead shard teaches nothing. *)
let chaos_plan ~seed ~shards ~flushes ~events =
  if shards < 1 then invalid_arg "Churn.chaos_plan: shards < 1";
  if flushes < 1 then invalid_arg "Churn.chaos_plan: flushes < 1";
  let rng = Rng.create ~seed in
  (* Fire times are drawn first and sorted so the sick-shard bookkeeping
     below walks the plan in the order it will actually execute — a heal
     always lands after the fault that made its shard sick. *)
  let times = Array.init events (fun _ -> Rng.int rng flushes) in
  Array.sort compare times;
  let sick = Hashtbl.create 8 in
  let plan = ref [] in
  Array.iter (fun at_flush ->
    let shard = Rng.int rng shards in
    let action =
      if Hashtbl.mem sick shard then begin
        (* Mostly heal what is sick; occasionally bounce it instead. *)
        if Rng.int rng 100 < 70 then begin
          Hashtbl.remove sick shard;
          Chaos_heal
        end
        else Chaos_restart
      end
      else
        match Rng.int rng 100 with
        | r when r < 40 ->
            Hashtbl.replace sick shard ();
            Chaos_slow (4.0 +. float_of_int (Rng.int rng 12))
        | r when r < 70 ->
            Hashtbl.replace sick shard ();
            Chaos_fault
              {
                Fr_tcam.Fault.fail_prob = 0.2 +. (0.1 *. float_of_int (Rng.int rng 5));
                stuck = [];
                max_failures = None;
                slow_ms = 0.0;
              }
        | _ -> Chaos_restart
    in
    plan := { at_flush; shard; action } :: !plan)
    times;
  List.rev !plan

let apply_chaos_event service ~seed e =
  match e.action with
  | Chaos_fault spec ->
      Service.set_fault service ~shard:e.shard
        (Some
           (Fr_tcam.Fault.of_spec spec
              ~seed:(seed lxor (0xc4a05 + (e.shard * 131) + e.at_flush))))
  | Chaos_slow ms ->
      (* Seed keyed by shard and fire time, like Chaos_fault above: one
         shared stream across shards would make any draw the fault plan
         ever takes depend on which other shards got slow faults first —
         a replay-determinism hazard even in a sequential run. *)
      Service.set_fault service ~shard:e.shard
        (Some
           (Fr_tcam.Fault.create ~slow_ms:ms
              ~seed:(seed lxor (0x510 + (e.shard * 131) + e.at_flush))
              ()))
  | Chaos_heal -> Service.set_fault service ~shard:e.shard None
  | Chaos_restart ->
      (* Restart faults need a journal to re-adopt from; on an
         unjournaled service the event degrades to a no-op rather than
         killing state we could never rebuild. *)
      if Service.journaled service then
        ignore (Service.restart_shard service ~shard:e.shard)

let run ?policy ?algo ?verify ?resil ?journal ?domains ?configure ?(chaos = [])
    ?stop_after_flushes spec =
  (* One pool covers the preload and every insertion the mix can draw. *)
  let pool = Dataset.generate spec.kind ~seed:spec.seed ~n:(spec.initial + spec.ops) in
  let service =
    Service.of_rules ?kind:algo ?verify ?policy ?resil ?journal ?domains
      ~shards:spec.shards ~capacity:spec.capacity
      (Array.sub pool 0 spec.initial)
  in
  Option.iter (fun f -> f service) configure;
  let rng = Rng.create ~seed:(spec.seed + 1) in
  (* The generator's view of which ids are alive: optimistic (a rejected
     op leaves it slightly stale), like a controller racing its own
     in-flight updates.  The coalescing layer is exactly what absorbs the
     resulting redundancy. *)
  let live = ref (Array.to_list (Array.map (fun (r : Rule.t) -> r.Rule.id)
                                   (Array.sub pool 0 spec.initial)))
  in
  let n_live = ref spec.initial in
  let next = ref spec.initial in
  let pick_live () =
    let i = Rng.int rng !n_live in
    List.nth !live i
  in
  let drop_live id =
    live := List.filter (fun x -> x <> id) !live;
    decr n_live
  in
  let wall = Measure.Hist.create () in
  let flushes = ref 0 in
  let chaos_pending = ref chaos in
  let flush () =
    (* Stop *before* the flush past the budget: the current window's ops
       stay queued (and journaled) — exactly the uncommitted suffix a
       crash test wants to find on recovery. *)
    (match stop_after_flushes with
    | Some n when !flushes >= n -> raise Stop
    | _ -> ());
    (* Chaos events fire between flushes (the only point where a shard is
       quiescent, so a restart cannot interleave with a drain). *)
    let due, rest =
      List.partition (fun e -> e.at_flush <= !flushes) !chaos_pending
    in
    chaos_pending := rest;
    List.iter (apply_chaos_event service ~seed:spec.seed) due;
    let report = Service.flush service in
    Measure.Hist.record wall report.Service.wall_ms;
    incr flushes
  in
  (try
  for op = 1 to spec.ops do
    let roll = Rng.int rng 100 in
    (if (roll < 55 || !n_live = 0) && !next < Array.length pool then begin
       let r = pool.(!next) in
       incr next;
       Service.submit service (Agent.Add r);
       live := r.Rule.id :: !live;
       incr n_live
     end
     else if roll < 80 && !n_live > 0 then begin
       let id = pick_live () in
       Service.submit service (Agent.Remove { id });
       drop_live id
     end
     else if !n_live > 0 then
       Service.submit service
         (Agent.Set_action { id = pick_live (); action = Rule.Forward (Rng.int rng 16) }));
    if op mod spec.batch = 0 then flush ()
  done;
  if Service.pending service > 0 then flush ()
  with Stop -> ());
  let sum f =
    let acc = ref 0 in
    for i = 0 to spec.shards - 1 do
      acc := !acc + f (Shard.telemetry (Service.shard service i))
    done;
    !acc
  in
  {
    service;
    submitted = sum Telemetry.submitted;
    applied = sum Telemetry.applied;
    failed = sum Telemetry.failed;
    coalesced = sum Telemetry.coalesced;
    flushes = !flushes;
    retries = sum Telemetry.retries;
    shed = sum Telemetry.shed;
    breaker_opens = sum Telemetry.breaker_opens;
    diverted = sum Telemetry.diverted;
    rebalanced = sum Telemetry.rebalanced;
    restarts = sum Telemetry.restarts;
    flush_wall_ms = Measure.Hist.summary wall;
  }
