module Rng = Fr_prng.Rng
module Rule = Fr_tern.Rule
module Header = Fr_tern.Header
module Op = Fr_tcam.Op
module Tcam = Fr_tcam.Tcam
module Fault = Fr_tcam.Fault
module Algo = Fr_sched.Algo
module Sabotage = Fr_sched.Sabotage
module Firmware = Fr_switch.Firmware
module Agent = Fr_switch.Agent
module Measure = Fr_switch.Measure
module Journal = Fr_resil.Journal
module Service = Fr_ctrl.Service
module Shard = Fr_ctrl.Shard
module Telemetry = Fr_ctrl.Telemetry
module Breaker = Fr_resil.Breaker

type outcome =
  | Applied
  | Rejected of string
  | Verify_failed of string
  | Faulted of string

let pp_outcome ppf = function
  | Applied -> Format.pp_print_string ppf "applied"
  | Rejected e -> Format.fprintf ppf "rejected (%s)" e
  | Verify_failed e -> Format.fprintf ppf "VERIFY FAILED (%s)" e
  | Faulted e -> Format.fprintf ppf "faulted (%s)" e

type divergence = { event : int; scheduler : string; detail : string }

let pp_divergence ppf d =
  Format.fprintf ppf "[%s] %s: %s"
    (if d.event < 0 then "end" else string_of_int d.event)
    d.scheduler d.detail

type config = {
  probes : int;
  record : bool;
  sabotage : (string * Sabotage.mode) list;
  fault_prob : float;
  fault_seed : int;
  max_failures : int;
}

let default_config =
  {
    probes = 8;
    record = false;
    sabotage = [];
    fault_prob = 0.;
    fault_seed = 0;
    max_failures = -1;
  }

type column = {
  scheduler : string;
  applied : int;
  rejected : int;
  verify_failed : int;
  faulted : int;
  crashed : string option;
}

type report = {
  trace : Trace.t;
  columns : column list;
  probes_run : int;
  divergences : divergence list;
  checked_ops : int;
  snapshots_checked : int;
  verify_ms : float;
}

let clean r =
  r.divergences = [] && List.for_all (fun c -> c.crashed = None) r.columns

(* One scheduler under examination. *)
type lane = {
  name : string;
  agent : Agent.t;
  emitted : Op.t list array;  (** what the scheduler emitted, per event *)
  history : Buffer.t;  (** '1' per applied event, '0' otherwise *)
  mutable n_applied : int;
  mutable n_rejected : int;
  mutable n_verify_failed : int;
  mutable n_faulted : int;
  mutable dead : string option;
}

(* Record every accepted emission into [slot.(!cur)] — wrapped outside the
   saboteur, so the recording is what actually reached the TCAM. *)
let recorder ~slot ~cur (a : Algo.t) =
  {
    a with
    Algo.schedule_insert =
      (fun ~rule_id ~deps ~dependents ->
        let r = a.Algo.schedule_insert ~rule_id ~deps ~dependents in
        (match r with Ok ops -> slot.(!cur) <- ops | Error _ -> ());
        r);
    schedule_delete =
      (fun ~rule_id ->
        let r = a.Algo.schedule_delete ~rule_id in
        (match r with Ok ops -> slot.(!cur) <- ops | Error _ -> ());
        r);
  }

let fault_tolerant = function
  | Firmware.FR_O _ | Firmware.FR_SD _ | Firmware.FR_SB _ -> true
  | Firmware.Naive | Firmware.Ruletris -> false

let classify = function
  | Ok () -> Applied
  | Error e ->
      let has_prefix p =
        String.length e >= String.length p && String.sub e 0 (String.length p) = p
      in
      if has_prefix "verify: " then Verify_failed e
      else if has_prefix "fault: " then Faulted e
      else Rejected e

let store_image agent =
  List.sort compare
    (List.map (fun (r : Rule.t) -> (r.Rule.id, r.Rule.action)) (Agent.rules agent))

let winner_id = function None -> -1 | Some (r : Rule.t) -> r.Rule.id

(* Semantic winner over an explicit rule list — Agent.semantic_lookup's
   total order (priority, then lower id) detached from the live store, so
   it can answer for the *pre*-event rule set after the event applied. *)
let semantic_winner rules pkt =
  List.fold_left
    (fun best (r : Rule.t) ->
      if not (Rule.matches_packet r pkt) then best
      else
        match best with
        | None -> Some r
        | Some (b : Rule.t) ->
            if
              r.Rule.priority > b.Rule.priority
              || (r.Rule.priority = b.Rule.priority && r.Rule.id < b.Rule.id)
            then Some r
            else best)
    None rules

let run ?(config = default_config) (trace : Trace.t) =
  let pool = Trace.rules trace in
  let n_events = List.length trace.Trace.events in
  let kinds = Firmware.standard_algos Fr_sched.Store.Bit_backend in
  let cur = ref 0 in
  let preload = Array.sub pool 0 trace.Trace.initial in
  let divergences = ref [] in
  let diverge ~event ~scheduler detail =
    divergences := { event; scheduler; detail } :: !divergences
  in
  let make_lane kind =
    let name = Firmware.algo_kind_name kind in
    let emitted = Array.make (max n_events 1) ([] : Op.t list) in
    let scheduler ~graph ~tcam =
      let base = Firmware.make_scheduler kind ~graph ~tcam in
      let base =
        match List.assoc_opt name config.sabotage with
        | Some mode -> Sabotage.wrap mode base
        | None -> base
      in
      recorder ~slot:emitted ~cur base
    in
    let agent =
      Agent.of_rules ~kind ~scheduler ~verify:true
        ~capacity:trace.Trace.capacity preload
    in
    (if config.fault_prob > 0. && fault_tolerant kind then
       let plan =
         Fault.create ~fail_prob:config.fault_prob
           ~max_failures:config.max_failures
           ~seed:(trace.Trace.seed lxor config.fault_seed lxor Hashtbl.hash name)
           ()
       in
       Agent.set_fault agent (Some plan));
    {
      name;
      agent;
      emitted;
      history = Buffer.create (n_events + 1);
      n_applied = 0;
      n_rejected = 0;
      n_verify_failed = 0;
      n_faulted = 0;
      dead = None;
    }
  in
  let lanes = List.map make_lane kinds in
  (* probe stream: second split of the trace seed (the first is the event
     stream the generator consumed) *)
  let root = Rng.create ~seed:trace.Trace.seed in
  let _event_stream = Rng.split root in
  let probe_rng = Rng.split root in
  let probes_run = ref 0 in
  let snapshots_checked = ref 0 in
  let body () =
    List.iteri
      (fun idx ev ->
        cur := idx;
        let fm = Trace.flow_mod pool ev in
        (* 1. drive the event through every (live) lane, capturing every
           snapshot the lane publishes mid-cascade (one image per
           committed hardware op / payload bind) together with the
           pre-event rule set, for the snapshot-consistency step below *)
        let snap_work = ref [] in
        List.iter
          (fun lane ->
            match lane.dead with
            | Some _ -> Buffer.add_char lane.history 'x'
            | None -> (
                let pre_rules = Agent.rules lane.agent in
                let captured = ref [] in
                Agent.set_publish_observer lane.agent
                  (Some (fun img -> captured := img :: !captured));
                let finish_capture () =
                  Agent.set_publish_observer lane.agent None;
                  snap_work := (lane, pre_rules, List.rev !captured) :: !snap_work
                in
                match classify (Agent.apply lane.agent fm) with
                | Applied ->
                    finish_capture ();
                    lane.n_applied <- lane.n_applied + 1;
                    Buffer.add_char lane.history '1'
                | Rejected _ ->
                    finish_capture ();
                    lane.n_rejected <- lane.n_rejected + 1;
                    Buffer.add_char lane.history '0'
                | Verify_failed e ->
                    finish_capture ();
                    lane.n_verify_failed <- lane.n_verify_failed + 1;
                    Buffer.add_char lane.history '0';
                    diverge ~event:idx ~scheduler:lane.name e
                | Faulted _ ->
                    finish_capture ();
                    lane.n_faulted <- lane.n_faulted + 1;
                    (* A faulted sequence can still change the store: a
                       Remove whose erase landed before the fault completes
                       the logical removal.  The history tracks the store
                       *effect* (that is what the grouping compares), so
                       probe the store rather than trusting the verdict. *)
                    let changed =
                      match ev with
                      | Trace.Remove i ->
                          Agent.rule lane.agent pool.(i).Rule.id = None
                      | Trace.Add _ | Trace.Set_action _ -> false
                    in
                    Buffer.add_char lane.history (if changed then '1' else '0')
                | exception e ->
                    Agent.set_publish_observer lane.agent None;
                    lane.dead <- Some (Printexc.to_string e);
                    Buffer.add_char lane.history 'x';
                    diverge ~event:idx ~scheduler:lane.name
                      ("agent crashed: " ^ Printexc.to_string e)))
          lanes;
        (* 2. dependency invariant on every intermediate state *)
        List.iter
          (fun lane ->
            if lane.dead = None then
              match
                Tcam.check_dag_order (Agent.tcam lane.agent)
                  (Agent.graph lane.agent)
              with
              | Ok () -> ()
              | Error e ->
                  diverge ~event:idx ~scheduler:lane.name
                    ("dependency invariant violated: " ^ e))
          lanes;
        (* 3. semantic lookup equivalence: TCAM winner vs linear scan.
           The probe stream advances regardless of lane health, so equal
           traces probe equal packets.  The packets are drawn once per
           event and shared with the snapshot step below. *)
        let pkts =
          Array.init config.probes (fun _ ->
              let r = pool.(Rng.int probe_rng (Array.length pool)) in
              Header.packet_in probe_rng r.Rule.field)
        in
        Array.iter
          (fun pkt ->
            incr probes_run;
            List.iter
              (fun lane ->
                if lane.dead = None then
                  let hw = winner_id (Agent.lookup lane.agent pkt) in
                  let sem = winner_id (Agent.semantic_lookup lane.agent pkt) in
                  if hw <> sem then
                    diverge ~event:idx ~scheduler:lane.name
                      (Printf.sprintf
                         "lookup divergence: TCAM matched rule %d, linear scan \
                          says %d"
                         hw sem))
              lanes)
          pkts;
        (* 3b. snapshot consistency: every image published mid-cascade
           must answer the probe packets exactly as the semantic table
           either before or after the flow-mod — as a whole vector, so a
           half-applied mix of the two states can never hide.  A
           [Set_action] whose entry sits on a dead row legitimately
           relocates through Remove + Add (see Agent), so the transient
           rule-absent state is an accepted third vector for that event
           kind only. *)
        if config.probes > 0 then
          List.iter
            (fun (lane, pre_rules, images) ->
              if lane.dead = None && images <> [] then begin
                let vec rules =
                  Array.map (fun pkt -> winner_id (semantic_winner rules pkt)) pkts
                in
                let pre_v = vec pre_rules in
                let post_v = vec (Agent.rules lane.agent) in
                let relocate_v =
                  match fm with
                  | Agent.Set_action { id; _ } ->
                      Some
                        (vec
                           (List.filter
                              (fun (r : Rule.t) -> r.Rule.id <> id)
                              pre_rules))
                  | Agent.Add _ | Agent.Remove _ -> None
                in
                List.iter
                  (fun img ->
                    incr snapshots_checked;
                    let got =
                      Array.map
                        (fun pkt ->
                          winner_id (Fr_tcam.Image.lookup img pkt))
                        pkts
                    in
                    if
                      got <> pre_v && got <> post_v
                      && (match relocate_v with
                         | Some v -> got <> v
                         | None -> true)
                    then begin
                      (* got <> pre_v, so a differing probe exists; prefer
                         one that matches neither state (a true stray)
                         over one that merely exposes a mix. *)
                      let first_bad = ref (-1) in
                      Array.iteri
                        (fun i g ->
                          if !first_bad < 0 && g <> pre_v.(i) && g <> post_v.(i)
                          then first_bad := i)
                        got;
                      if !first_bad < 0 then
                        Array.iteri
                          (fun i g ->
                            if !first_bad < 0 && g <> pre_v.(i) then
                              first_bad := i)
                          got;
                      if !first_bad < 0 then first_bad := 0;
                      diverge ~event:idx ~scheduler:lane.name
                        (Printf.sprintf
                           "snapshot divergence at epoch %d: image matched \
                            rule %d on probe %d, semantic table says %d \
                            (pre) / %d (post)"
                           (Fr_tcam.Image.epoch img)
                           got.(!first_bad) !first_bad pre_v.(!first_bad)
                           post_v.(!first_bad))
                    end)
                  images
              end)
            !snap_work;
        (* 4. lanes with identical accept histories must hold identical
           stores *)
        let groups : (string, (string * (int * Rule.action) list) list) Hashtbl.t
            =
          Hashtbl.create 8
        in
        List.iter
          (fun lane ->
            if lane.dead = None then
              let key = Buffer.contents lane.history in
              let img = store_image lane.agent in
              Hashtbl.replace groups key
                ((lane.name, img)
                :: (try Hashtbl.find groups key with Not_found -> [])))
          lanes;
        Hashtbl.iter
          (fun _ members ->
            match members with
            | [] | [ _ ] -> ()
            | (ref_name, ref_img) :: rest ->
                List.iter
                  (fun (name, img) ->
                    if img <> ref_img then
                      diverge ~event:idx ~scheduler:name
                        (Printf.sprintf
                           "store differs from %s despite identical accept \
                            history (%d vs %d rules)"
                           ref_name (List.length img) (List.length ref_img)))
                  rest)
          groups)
      trace.Trace.events;
    (* 5. determinism: fresh emissions must reproduce embedded recordings *)
    List.iter
      (fun (name, recorded) ->
        match List.find_opt (fun l -> l.name = name) lanes with
        | None -> ()
        | Some lane ->
            if lane.dead = None then
              Array.iteri
                (fun idx ops ->
                  if idx < n_events
                     && not (List.equal Op.equal ops lane.emitted.(idx))
                  then
                    diverge ~event:idx ~scheduler:name
                      (Format.asprintf
                         "nondeterministic emission: recorded %a, replayed %a"
                         Op.pp_sequence ops Op.pp_sequence lane.emitted.(idx)))
                recorded)
      trace.Trace.recordings
  in
  body ();
  let columns =
    List.map
      (fun lane ->
        {
          scheduler = lane.name;
          applied = lane.n_applied;
          rejected = lane.n_rejected;
          verify_failed = lane.n_verify_failed;
          faulted = lane.n_faulted;
          crashed = lane.dead;
        })
      lanes
  in
  let checked_ops =
    List.fold_left (fun acc l -> acc + Agent.verified_ops l.agent) 0 lanes
  in
  let verify_ms =
    List.fold_left (fun acc l -> acc +. Agent.verify_ms_total l.agent) 0. lanes
  in
  let trace =
    if config.record then
      {
        trace with
        Trace.recordings =
          List.map (fun l -> (l.name, Array.sub l.emitted 0 n_events)) lanes;
      }
    else trace
  in
  {
    trace;
    columns;
    probes_run = !probes_run;
    divergences = List.rev !divergences;
    checked_ops;
    snapshots_checked = !snapshots_checked;
    verify_ms;
  }

(* -- service-level fault lanes ----------------------------------------- *)

type fault = Bundle.fault =
  | Crash of { at : int; mid_drain : bool }
  | Slow of { shards : int; shard : int; ms : float }
  | Stuck of { shards : int; shard : int; frac : float }

type service_lane = {
  sched : string;
  committed : int;
  suffix : int;
  replayed_drains : int;
  requeued : int;
  recovered_rules : int;
  applied_ops : int;
  failed_ops : int;
  shed : int;
  diverted : int;
  degraded_diverted : int;
  rebalanced : int;
  dead_max : int;
  rows_recovered : int;
  heal_flushes : int;
}

type service_report = {
  fault : fault;
  batch : int;
  source : Trace.t;
  seeded_dead : int;
  lanes : service_lane list;
  vacuous : string list;
  findings : divergence list;
  elapsed_ms : float;
}

let service_clean ?(strict = false) r =
  r.findings = [] && ((not strict) || r.vacuous = [])

let rec rm_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_tree (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* The union of every shard's installed table — placement-independent, so
   a service that diverted and rebalanced compares equal to one that never
   faulted as long as the *rules* agree. *)
let union_image service =
  let acc = ref [] in
  for i = 0 to Service.shards service - 1 do
    acc := store_image (Shard.agent (Service.shard service i)) @ !acc
  done;
  List.sort compare !acc

(* Cross-shard winner under a per-agent [lookup] (the TCAM answer or the
   semantic scan): highest priority, ties to the smaller id — the same
   total order {!Agent.semantic_lookup} uses within one shard. *)
let union_winner lookup service pkt =
  let best = ref None in
  for i = 0 to Service.shards service - 1 do
    match lookup (Shard.agent (Service.shard service i)) pkt with
    | None -> ()
    | Some (r : Rule.t) -> (
        match !best with
        | Some (b : Rule.t)
          when b.Rule.priority > r.Rule.priority
               || (b.Rule.priority = r.Rule.priority && b.Rule.id < r.Rule.id)
          -> ()
        | _ -> best := Some r)
  done;
  winner_id !best

(* The stuck bank: [frac] of the sick shard's rows, drawn once per trace
   so every scheduler (and every domain count) faces the same holes. *)
let stuck_bank (trace : Trace.t) frac =
  let n_dead =
    max 1 (int_of_float (frac *. float_of_int trace.Trace.capacity))
  in
  let rng = Rng.create ~seed:(trace.Trace.seed lxor 0xdead) in
  let seen = Hashtbl.create n_dead in
  let rec draw acc k =
    if k = 0 then acc
    else
      let a = Rng.int rng trace.Trace.capacity in
      if Hashtbl.mem seen a then draw acc k
      else begin
        Hashtbl.replace seen a ();
        draw (a :: acc) (k - 1)
      end
  in
  draw [] n_dead

let run_service ?(probes = 8) ?(batch = 4) ?domains ?capture fault
    (trace : Trace.t) =
  let fail fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Oracle.run_service: " ^ m)) fmt
  in
  if batch <= 0 then fail "batch must be positive (got %d)" batch;
  let sick_shard shards shard =
    if shards < 2 then fail "failover needs at least 2 shards (got %d)" shards;
    if shard < 0 || shard >= shards then
      fail "fault shard %d out of range (0..%d)" shard (shards - 1)
  in
  let pool = Trace.rules trace in
  let events = Array.of_list trace.Trace.events in
  let n_events = Array.length events in
  let preload = Array.sub pool 0 trace.Trace.initial in
  let kinds = Firmware.standard_algos Fr_sched.Store.Bit_backend in
  let seed = trace.Trace.seed in
  (* Per fault: its validation, the service shape, its supervision
     profile, and the plan the faulted run installs on its sick shard
     (fresh per run — a plan carries its own PRNG). *)
  let fault, shards, resil, sick, seeded_dead =
    match fault with
    | Crash { at; mid_drain } ->
        let at = max 0 (min at n_events) in
        (Crash { at; mid_drain }, 1, Service.default_resil, None, 0)
    | Slow { shards; shard; ms } ->
        sick_shard shards shard;
        if ms <= 0.0 then
          fail "slow fault must cost a positive ms/op (got %g)" ms;
        (* A slow threshold between the healthy per-op cost (~0.6 ms) and
           the faulted one (base + ms) — healthy shards never trip it,
           the sick one always does. *)
        ( fault,
          shards,
          {
            Service.default_resil with
            Service.failover = true;
            slow_drain_ms = 2.0;
            breaker_slow_threshold = 2;
            breaker_cooldown = 2;
          },
          Some
            ( shard,
              fun () -> Fault.create ~slow_ms:ms ~seed:(seed lxor 0xfa11) () ),
          0 )
    | Stuck { shards; shard; frac } ->
        (* Stuck writes are damage, so the supervisor must absorb the
           discovery: a failed op condemns its target row and the retry
           reschedules around it.  A generous retry budget lets a drain
           end damage-free even when successive cascades keep probing
           fresh holes, so the breaker never mistakes the sick shard for
           a dead one — it is not dead, merely smaller. *)
        sick_shard shards shard;
        if frac <= 0.0 || frac >= 1.0 then
          fail "dead fraction must be in (0, 1) (got %g)" frac;
        let stuck = stuck_bank trace frac in
        ( fault,
          shards,
          {
            Service.default_resil with
            Service.failover = true;
            retry_budget = 8;
            breaker_cooldown = 2;
          },
          Some (shard, fun () -> Fault.create ~stuck ~seed:(seed lxor 0xdf) ()),
          List.length stuck )
  in
  let divergences = ref [] in
  let diverge ~scheduler detail =
    divergences := { event = -1; scheduler; detail } :: !divergences
  in
  let probe_packets rng n f =
    for _ = 1 to n do
      let r = pool.(Rng.int rng (Array.length pool)) in
      f (Header.packet_in rng r.Rule.field)
    done
  in
  (* Every flush of every lane is held to the route law: the service's
     route table and overlay equal a full rebuild from its shards. *)
  let flush ~scheduler s =
    ignore (Service.flush s);
    match Service.routes_consistent s with
    | Ok () -> ()
    | Error e -> diverge ~scheduler ("route law broken after a flush: " ^ e)
  in
  (* Build a service of the lane's shape and drive the first [upto] events
     through it, flushing every [batch]; [on_flush] sees each flush
     boundary (the last event index it covers, or [upto] for the settling
     flush of the leftover tail). *)
  let drive ?journal ?(faulted = false) ?(settle = true)
      ?(on_flush = fun _ _ -> ()) kind upto =
    let scheduler = Firmware.algo_kind_name kind in
    let s =
      Service.of_rules ~kind ?domains ~shards ~capacity:trace.Trace.capacity
        ~resil ?journal preload
    in
    (match sick with
    | Some (shard, plan) when faulted ->
        Service.set_fault s ~shard (Some (plan ()))
    | Some _ | None -> ());
    for i = 0 to upto - 1 do
      Service.submit s (Trace.flow_mod pool events.(i));
      if (i + 1) mod batch = 0 then begin
        flush ~scheduler s;
        on_flush s i
      end
    done;
    if settle && Service.pending s > 0 then begin
      flush ~scheduler s;
      on_flush s upto
    end;
    s
  in
  (* Hold [a] to the reference [b]: equal union tables, and equal TCAM
     winners on [probes] packets from a fresh stream salted with [salt]. *)
  let agree ~scheduler ~salt ~store ~lookup a b =
    let img_a = union_image a and img_b = union_image b in
    if img_a <> img_b then
      diverge ~scheduler
        (Printf.sprintf "%s (%d vs %d rules)" store (List.length img_a)
           (List.length img_b));
    probe_packets (Rng.create ~seed:(seed lxor salt)) probes (fun pkt ->
        let wa = union_winner Agent.lookup a pkt in
        let wb = union_winner Agent.lookup b pkt in
        if wa <> wb then diverge ~scheduler (lookup wa wb))
  in
  let blank sched =
    {
      sched;
      committed = 0;
      suffix = 0;
      replayed_drains = 0;
      requeued = 0;
      recovered_rules = 0;
      applied_ops = 0;
      failed_ops = 0;
      shed = 0;
      diverted = 0;
      degraded_diverted = 0;
      rebalanced = 0;
      dead_max = 0;
      rows_recovered = 0;
      heal_flushes = 0;
    }
  in
  (* Crash: kill the journaled run after [at] events, recover from the
     journal alone, and hold the result to journal-free references driven
     over the committed prefix (before the requeued suffix flushes) and
     over the whole prefix (after). *)
  let crash_lane ~at ~mid_drain name kind journal =
    let committed = ref 0 in
    let s =
      drive ~journal ~settle:false
        ~on_flush:(fun _ i -> committed := i + 1)
        kind at
    in
    Service.simulate_crash ~mid_drain s;
    let lane =
      { (blank name) with committed = !committed; suffix = at - !committed }
    in
    match Service.recover ?domains ~journal () with
    | Error e ->
        diverge ~scheduler:name ("recovery failed: " ^ e);
        lane
    | Ok r ->
        List.iter
          (fun w -> diverge ~scheduler:name ("recovery warning: " ^ w))
          r.Service.warnings;
        let recovered = r.Service.service in
        (match
           Agent.verify_consistent (Shard.agent (Service.shard recovered 0))
         with
        | Ok () -> ()
        | Error e ->
            diverge ~scheduler:name ("recovered agent inconsistent: " ^ e));
        let against stage upto =
          agree ~scheduler:name ~salt:0x5eed
            ~store:(stage ^ ": store differs from committed-prefix replay")
            ~lookup:
              (Printf.sprintf
                 "%s: lookup divergence (recovered matched %d, reference %d)"
                 stage)
            recovered (drive kind upto)
        in
        (match Service.routes_consistent recovered with
        | Ok () -> ()
        | Error e ->
            diverge ~scheduler:name ("route law broken after recovery: " ^ e));
        against "post-recovery" !committed;
        if Service.pending recovered > 0 then flush ~scheduler:name recovered;
        against "post-recovery flush" at;
        {
          lane with
          replayed_drains = r.Service.replayed_drains;
          requeued = r.Service.requeued;
          recovered_rules = Service.rule_count recovered;
        }
  in
  (* Slow / Stuck: drive a faulted run and a never-faulted twin, heal the
     fault, keep flushing until the overlay drains home (and the probe
     drill revives every condemned row), then hold the healed run to the
     twin. *)
  let heal_lane name kind =
    let dead_max = ref 0 in
    let on_flush =
      match fault with
      | Stuck _ ->
          (* Probe point: the hardware answer must match the semantic scan
             at every flush boundary, holes or no holes. *)
          let rng = Rng.create ~seed:(seed lxor 0x9b0e) in
          fun s i ->
            dead_max := max !dead_max (Service.dead_rows s);
            probe_packets rng 2 (fun pkt ->
                let wa = union_winner Agent.lookup s pkt in
                let wb = union_winner Agent.semantic_lookup s pkt in
                if wa <> wb then
                  diverge ~scheduler:name
                    (Printf.sprintf
                       "lookup/semantic divergence at event %d under dead \
                        rows (hw %d, spec %d)"
                       i wa wb))
      | Crash _ | Slow _ -> fun _ _ -> ()
    in
    let faulted = drive ~faulted:true ~on_flush kind n_events in
    let twin = drive kind n_events in
    Option.iter (fun (shard, _) -> Service.set_fault faulted ~shard None) sick;
    let converged () =
      Service.diverted_count faulted = 0
      && Service.pending faulted = 0
      && Service.dead_rows faulted = 0
      && List.for_all
           (fun i -> Service.breaker_state faulted i = Breaker.Closed)
           (List.init shards Fun.id)
    in
    let heal_flushes = ref 0 in
    while (not (converged ())) && !heal_flushes < 100 do
      flush ~scheduler:name faulted;
      incr heal_flushes
    done;
    let sum f =
      List.fold_left
        (fun acc i -> acc + f (Shard.telemetry (Service.shard faulted i)))
        0 (List.init shards Fun.id)
    in
    let lane =
      {
        (blank name) with
        applied_ops = sum Telemetry.applied;
        failed_ops = sum Telemetry.failed;
        shed = sum Telemetry.shed;
        diverted = sum Telemetry.diverted;
        degraded_diverted = sum Telemetry.degraded_diverted;
        rebalanced = sum Telemetry.rebalanced;
        dead_max = !dead_max;
        rows_recovered = sum Telemetry.rows_recovered;
        heal_flushes = !heal_flushes;
      }
    in
    if lane.shed > 0 then
      diverge ~scheduler:name
        (Printf.sprintf "graceful degradation violated: %d submits shed"
           lane.shed);
    (* Under a stuck bank, [failed_ops] counts the transient failures that
       discover the holes before the retry heals them — the price of
       learning, not damage — and whether the bank was ever touched is
       workload-dependent, so it lands in [vacuous] rather than here. *)
    (match fault with
    | Slow _ ->
        if lane.failed_ops > 0 then
          diverge ~scheduler:name
            (Printf.sprintf "%d ops failed under a latency-only fault"
               lane.failed_ops);
        if lane.diverted = 0 then
          diverge ~scheduler:name
            "vacuous run: the latency fault never diverted any id"
    | Crash _ | Stuck _ -> ());
    if not (converged ()) then
      diverge ~scheduler:name
        (Printf.sprintf
           "%s run did not converge: %d diverted, %d pending, %d dead rows \
            after %d heal flushes"
           (Bundle.mode fault)
           (Service.diverted_count faulted)
           (Service.pending faulted)
           (Service.dead_rows faulted)
           !heal_flushes);
    let salt, after =
      match fault with
      | Slow _ -> (0xf10e, "under failover")
      | Crash _ | Stuck _ -> (0xd1f, "after heal")
    in
    agree ~scheduler:name ~salt
      ~store:"final store differs from the never-faulted twin"
      ~lookup:
        (Printf.sprintf "lookup divergence %s (healed matched %d, twin %d)"
           after)
      faulted twin;
    lane
  in
  let run_kind kind =
    let name = Firmware.algo_kind_name kind in
    let diverged_before = List.length !divergences in
    let lane, journal =
      match fault with
      | Crash { at; mid_drain } ->
          let dir = Journal.fresh_dir ~prefix:"fr-conform-crash" in
          (crash_lane ~at ~mid_drain name kind dir, Some dir)
      | Slow _ | Stuck _ -> (heal_lane name kind, None)
    in
    (* Capture must beat the cleanup below: the journal is the evidence. *)
    (match capture with
    | Some cap when List.length !divergences > diverged_before ->
        let bundle =
          Bundle.write
            ~dir:(Filename.concat cap (Bundle.mode fault ^ "-" ^ name))
            { Bundle.fault; batch; probes }
            ~trace ~journal
        in
        diverge ~scheduler:name ("divergence bundle captured at " ^ bundle)
    | Some _ | None -> ());
    Option.iter rm_tree journal;
    lane
  in
  let lanes, elapsed_ms = Measure.time_ms (fun () -> List.map run_kind kinds) in
  let vacuous =
    match fault with
    | Stuck _ ->
        List.filter_map
          (fun l -> if l.dead_max = 0 then Some l.sched else None)
          lanes
    | Crash _ | Slow _ -> []
  in
  {
    fault;
    batch;
    source = trace;
    seeded_dead;
    lanes;
    vacuous;
    findings = List.rev !divergences;
    elapsed_ms;
  }

(* The closing block of every report: the divergence count, then at most
   [limit] of them. *)
let pp_divergences ?(limit = max_int) ppf = function
  | [] -> Format.fprintf ppf "  divergences: none@."
  | ds ->
      let n = List.length ds in
      Format.fprintf ppf "  divergences: %d@." n;
      List.iteri
        (fun i d ->
          if i < limit then Format.fprintf ppf "    %a@." pp_divergence d)
        ds;
      if n > limit then Format.fprintf ppf "    ... and %d more@." (n - limit)

let pp_service_report ppf r =
  Format.fprintf ppf "%a@." Trace.pp r.source;
  let pp_lane =
    match r.fault with
    | Crash { at; mid_drain } ->
        Format.fprintf ppf "  crash after %d events%s@." at
          (if mid_drain then " (mid-drain: begin markers on disk, no commit)"
           else "");
        fun l ->
          Format.fprintf ppf
            "  %-9s committed %d + suffix %d; replayed %d drains, requeued \
             %d, %d rules recovered@."
            l.sched l.committed l.suffix l.replayed_drains l.requeued
            l.recovered_rules
    | Slow { shards; shard; ms } ->
        Format.fprintf ppf
          "  failover: %d shards, persistent %g ms/op latency fault on shard \
           %d@."
          shards ms shard;
        fun l ->
          Format.fprintf ppf
            "  %-9s %4d applied, %d failed, %d shed; %d diverted, %d \
             rebalanced home in %d heal flushes@."
            l.sched l.applied_ops l.failed_ops l.shed l.diverted l.rebalanced
            l.heal_flushes
    | Stuck { shards; shard; frac } ->
        Format.fprintf ppf
          "  degraded: %d shards, %.0f%% stuck bank (%d rows) on shard %d@."
          shards (100.0 *. frac) r.seeded_dead shard;
        fun l ->
          Format.fprintf ppf
            "  %-9s %4d applied, %d transient-failed, %d shed; %d diverted \
             (%d degraded), %d dead max, %d recovered, healed in %d flushes@."
            l.sched l.applied_ops l.failed_ops l.shed l.diverted
            l.degraded_diverted l.dead_max l.rows_recovered l.heal_flushes
  in
  List.iter pp_lane r.lanes;
  pp_divergences ppf r.findings

let pp_report ppf r =
  Format.fprintf ppf "%a@." Trace.pp r.trace;
  List.iter
    (fun c ->
      Format.fprintf ppf "  %-9s %4d applied, %3d rejected%s%s%s@." c.scheduler
        c.applied c.rejected
        (if c.verify_failed > 0 then
           Printf.sprintf ", %d VERIFY-FAILED" c.verify_failed
         else "")
        (if c.faulted > 0 then Printf.sprintf ", %d faulted" c.faulted else "")
        (match c.crashed with
        | Some e -> Printf.sprintf ", CRASHED (%s)" e
        | None -> ""))
    r.columns;
  Format.fprintf ppf "  %d probes/agent; %d snapshots checked; %d ops checked@."
    r.probes_run r.snapshots_checked r.checked_ops;
  pp_divergences ~limit:10 ppf r.divergences

let pp_timing ppf r =
  Format.fprintf ppf "%d ops checked in %.2f ms%s@." r.checked_ops r.verify_ms
    (if r.verify_ms > 0. then
       Printf.sprintf " (%.0f checked-ops/s)"
         (float_of_int r.checked_ops /. (r.verify_ms /. 1000.))
     else "")

(* ------------------------------------------------------------------ *)
(* ------------------------------------------------------------------ *)
(* Fleet lanes: rollouts held to the pure model.                       *)

module Net_fleet = Fr_net.Fleet
module Net_plan = Fr_net.Plan
module Net_check = Fr_net.Check
module Net_scenario = Fr_net.Scenario
module Net_topo = Fr_net.Topo

type fleet_case = {
  plan : Net_plan.t;
  faults : Net_scenario.fault_schedule;
  supervision : Net_fleet.supervision option;
  abort_at : int option;
}

type fleet_lane = {
  kind : string;
  verdict : string;
  rounds_run : int;
  mods_applied : int;
  mods_failed : int;
  retried : int;
  quarantines : int;
  recovered : int;
  probe_points : int;
}

type fleet_report = {
  cases : (fleet_case * fleet_lane list) list;
  fleet_findings : divergence list;
  fleet_ms : float;
}

let fleet_clean r = r.fleet_findings = []

(* A case's seed is its supervision's jitter seed, which the chaos
   generator sets to the seed it drew the case from. *)
let case_seed c =
  match c.supervision with Some s -> s.Net_fleet.sup_seed | None -> 0

let fleet_converged plan fleet (outcome : Net_fleet.outcome) =
  let holds policy stamps target =
    let topo = Net_plan.topo plan in
    let model =
      Net_check.Model.of_policy topo
        ~version_of:(fun f ->
          Option.value ~default:0
            (List.assoc_opt f.Fr_net.Policy.flow_id stamps))
        policy
    in
    let tables =
      List.for_all
        (fun node ->
          Net_fleet.rules fleet node = Net_check.Model.rules model node)
        (List.init (Net_topo.nodes topo) Fun.id)
    in
    match (tables, Net_fleet.stamps fleet = stamps) with
    | true, true -> Ok target
    | false, true -> Error ("final tables differ from the " ^ target ^ " model")
    | true, false -> Error ("final stamps differ from the " ^ target ^ " model")
    | false, false ->
        Error ("final tables and stamps differ from the " ^ target ^ " model")
  in
  match outcome with
  | Net_fleet.Completed ->
      holds (Net_plan.new_policy plan) (Net_plan.stamps_after plan) "new policy"
  | Net_fleet.Aborted _ ->
      holds (Net_plan.old_policy plan) (Net_plan.stamps_before plan)
        "pre-rollout policy"
  | Net_fleet.Held k ->
      Error (Printf.sprintf "rollout wedged (held at round %d)" k)
  | Net_fleet.Crashed -> Error "unexpected crash outcome"

let run_fleet ?(samples = 2) ?(shards = 2) ?(capacity = 64) ?domains cases =
  let kinds = Firmware.standard_algos Fr_sched.Store.Bit_backend in
  let findings = ref [] in
  let run_case i c =
    let label =
      match c.supervision with
      | Some _ -> Printf.sprintf "case %d (seed %d): " i (case_seed c)
      | None -> Printf.sprintf "case %d: " i
    in
    let diverge ~event ~scheduler detail =
      findings := { event; scheduler; detail = label ^ detail } :: !findings
    in
    let before = Net_plan.stamps_before c.plan in
    (* Only a crash fault needs a journal: the crashed node is re-adopted
       from it mid-rollout. *)
    let journaled = Net_scenario.has_crash c.faults in
    let lane kind =
      let name = Firmware.algo_kind_name kind in
      let dir =
        if journaled then Some (Journal.fresh_dir ~prefix:"fr-conform-fleet")
        else None
      in
      Fun.protect ~finally:(fun () -> Option.iter rm_tree dir) @@ fun () ->
      let fleet =
        Net_fleet.of_policy ~kind ~shards ~capacity ?domains ?journal:dir
          ~version_of:(fun f -> List.assoc f.Fr_net.Policy.flow_id before)
          (Net_plan.topo c.plan) (Net_plan.old_policy c.plan)
      in
      (* One PRNG per lane, same seed for every lane: all lanes trace the
         same packets, so any disagreement is the scheduler's. *)
      let rng = Rng.create ~seed:11 in
      let probes = ref 0 in
      let check f ~round ~where =
        incr probes;
        List.iter
          (diverge ~event:round ~scheduler:name)
          (Net_check.consistent ~samples ~rng c.plan
             ~stamps:(Net_fleet.stamp f) ~lookup:(Net_fleet.lookup f) ~where)
      in
      check fleet ~round:0 ~where:"initial";
      let rep =
        Net_fleet.execute ~probe:check
          ?faults:(if c.faults = [] then None else Some c.faults)
          ?supervision:c.supervision ?abort_after_rounds:c.abort_at fleet
          c.plan
      in
      check fleet ~round:(-1) ~where:"final";
      (match fleet_converged c.plan fleet rep.Net_fleet.outcome with
      | Ok _ -> ()
      | Error why -> diverge ~event:(-1) ~scheduler:name why);
      if rep.Net_fleet.completed && rep.Net_fleet.failed > 0 then
        diverge ~event:(-1) ~scheduler:name
          (Printf.sprintf "%d flow-mods failed during the rollout"
             rep.Net_fleet.failed);
      {
        kind = name;
        verdict = Net_fleet.outcome_to_string rep.Net_fleet.outcome;
        rounds_run = rep.Net_fleet.rounds_run;
        mods_applied = rep.Net_fleet.applied;
        mods_failed = rep.Net_fleet.failed;
        retried = rep.Net_fleet.retried;
        quarantines = rep.Net_fleet.quarantines;
        recovered = rep.Net_fleet.recovered;
        probe_points = !probes;
      }
    in
    let lanes = List.map lane kinds in
    (* Every lane is held to the same model, so equal verdicts imply
       equal settled tables; the verdicts themselves must agree. *)
    (match lanes with
    | first :: rest ->
        List.iter
          (fun l ->
            if l.verdict <> first.verdict then
              diverge ~event:(-1) ~scheduler:l.kind
                (Printf.sprintf "outcome %s but %s saw %s" l.verdict first.kind
                   first.verdict))
          rest
    | [] -> ());
    (c, lanes)
  in
  let cases, fleet_ms = Measure.time_ms (fun () -> List.mapi run_case cases) in
  { cases; fleet_findings = List.rev !findings; fleet_ms }

let chaos_cases ?(shards = 2) ?(capacity = 64) ~seed n =
  List.init n (fun i ->
      let seed = seed + (7919 * i) in
      let rng = Rng.create ~seed in
      let shape =
        match Rng.int rng 3 with
        | 0 -> Net_topo.Line
        | 1 -> Net_topo.Ring
        | _ -> Net_topo.Tree
      in
      let nodes = 3 + Rng.int rng 4 in
      let flows = 4 + Rng.int rng 3 in
      let sc = Net_scenario.make ~flows ~seed (Net_topo.make shape nodes) in
      let plan =
        match Net_scenario.plan ~batch:4 sc with
        | Ok p -> p
        | Error e ->
            invalid_arg (Printf.sprintf "Oracle.chaos_cases: seed %d: %s" seed e)
      in
      let rounds = Net_plan.num_rounds plan in
      (* Every fourth case also pulls the operator abort lever at a random
         committed boundary, so the rollback path runs even when no fault
         escalates. *)
      let abort_at =
        if i mod 4 = 3 && rounds > 1 then Some (1 + Rng.int rng (rounds - 1))
        else None
      in
      let hold, hold_budget =
        if i mod 2 = 0 then (Net_fleet.Wait, 16) else (Net_fleet.Abort, 2)
      in
      (* The deadline sits far above any healthy round (a batch-4 round is
         tens of modelled ms at 0.6 ms/op) and far below every injected
         ack penalty (200+ ms), so timeouts fire exactly on scheduled slow
         faults whichever scheduler's movement count is under it. *)
      let supervision =
        {
          Net_fleet.deadline_ms = 50.0;
          retries = 1;
          breaker_threshold = 2;
          breaker_slow_threshold = 2;
          breaker_cooldown = 1;
          hold;
          hold_budget;
          sup_seed = seed;
        }
      in
      {
        plan;
        faults =
          Net_scenario.chaos_faults ~shards ~capacity ~seed ~rounds ~nodes ();
        supervision = Some supervision;
        abort_at;
      })

(* The reference lane's verdict per case: the first scheduler's, which
   every other lane must match. *)
let reference_lanes r =
  List.filter_map
    (fun (c, lanes) -> match lanes with l :: _ -> Some (c, l) | [] -> None)
    r.cases

let fleet_fingerprint r =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i (c, l) ->
      let topo = Net_plan.topo c.plan in
      Buffer.add_string buf
        (Printf.sprintf "%d %d %s %d %d %d [%s] %s %s %s %d %d %d %d\n" i
           (case_seed c) (Net_topo.shape_name topo) (Net_topo.nodes topo)
           (List.length (Net_plan.old_policy c.plan))
           (Net_plan.num_rounds c.plan)
           (String.concat ","
              (List.concat_map
                 (fun (node, fs) ->
                   List.map
                     (fun f -> Net_scenario.fault_to_string (node, f))
                     fs)
                 c.faults))
           (match c.supervision with
           | Some { hold = Net_fleet.Wait; _ } -> "wait"
           | Some _ -> "abort"
           | None -> "-")
           (match c.abort_at with None -> "-" | Some k -> string_of_int k)
           l.verdict l.retried l.quarantines l.recovered l.probe_points))
    (reference_lanes r);
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "div %d %s %s\n" d.event d.scheduler d.detail))
    r.fleet_findings;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Verdict kind ("completed", "aborted", ...) -> case count, sorted. *)
let outcome_counts r =
  List.fold_left
    (fun acc (_, l) ->
      let key =
        match String.index_opt l.verdict '@' with
        | Some k -> String.sub l.verdict 0 k
        | None -> l.verdict
      in
      let n = Option.value ~default:0 (List.assoc_opt key acc) in
      (key, n + 1) :: List.remove_assoc key acc)
    [] (reference_lanes r)
  |> List.sort compare

let pp_fleet_report ppf r =
  (match r.cases with
  | [ (c, lanes) ] ->
      let topo = Net_plan.topo c.plan in
      Format.fprintf ppf
        "net oracle: %s topology, %d nodes, %d flows, %d rounds planned@."
        (Net_topo.shape_name topo) (Net_topo.nodes topo)
        (List.length (Net_plan.old_policy c.plan))
        (Net_plan.num_rounds c.plan);
      List.iter
        (fun l ->
          Format.fprintf ppf
            "  %-9s %d rounds, %4d applied, %d failed, %d probe points@."
            l.kind l.rounds_run l.mods_applied l.mods_failed l.probe_points)
        lanes
  | cases ->
      let refs = reference_lanes r in
      let sum f = List.fold_left (fun a (_, l) -> a + f l) 0 refs in
      Format.fprintf ppf "net chaos: %d cases from seed %d, %.0f ms@."
        (List.length cases)
        (match cases with (c, _) :: _ -> case_seed c | [] -> 0)
        r.fleet_ms;
      Format.fprintf ppf "  outcomes:%s@."
        (String.concat ""
           (List.map
              (fun (k, n) -> Printf.sprintf " %s=%d" k n)
              (outcome_counts r)));
      Format.fprintf ppf
        "  %d retries, %d quarantines, %d node recoveries, %d probe \
         points/lane@."
        (sum (fun l -> l.retried))
        (sum (fun l -> l.quarantines))
        (sum (fun l -> l.recovered))
        (sum (fun l -> l.probe_points));
      Format.fprintf ppf "  fingerprint: %s@." (fleet_fingerprint r));
  pp_divergences ~limit:10 ppf r.fleet_findings

let fleet_json r =
  let module J = Telemetry.Json in
  let summary =
    match r.cases with
    | [ (_, lanes) ] ->
        [
          ( "columns",
            J.List
              (List.map
                 (fun l ->
                   J.Obj
                     [
                       ("scheduler", J.Str l.kind);
                       ("rounds", J.Int l.rounds_run);
                       ("applied", J.Int l.mods_applied);
                       ("failed", J.Int l.mods_failed);
                       ("probes", J.Int l.probe_points);
                     ])
                 lanes) );
        ]
    | _ ->
        [
          ( "outcomes",
            J.Obj (List.map (fun (k, n) -> (k, J.Int n)) (outcome_counts r)) );
          ("fingerprint", J.Str (fleet_fingerprint r));
        ]
  in
  summary
  @ [
      ( "divergences",
        J.List
          (List.map
             (fun d ->
               J.Obj
                 [
                   ("event", J.Int d.event);
                   ("scheduler", J.Str d.scheduler);
                   ("detail", J.Str d.detail);
                 ])
             r.fleet_findings) );
      ("clean", J.Bool (fleet_clean r));
      ("wall_ms", J.Float r.fleet_ms);
    ]
