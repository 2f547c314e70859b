module Agent = Fr_switch.Agent
module Measure = Fr_switch.Measure
module Tcam = Fr_tcam.Tcam

type t = {
  id : int;
  (* Mutable so a whole-shard restart fault can swap in a fresh agent:
     the old one's volatile state is the thing the fault destroys. *)
  mutable agent : Agent.t;
  queue : Coalesce.t;
  mutable touched : int list;
      (* ids pushed into [queue] since the service last took them, plus
         those still queued then — the only ids whose route a flush can
         have changed *)
  telemetry : Telemetry.t;
  (* Construction parameters, kept so [reset] rebuilds an identical
     agent shape. *)
  kind : Fr_switch.Firmware.algo_kind option;
  latency : Fr_tcam.Latency.t option;
  verify : bool option;
  capacity : int;
}

let create ?kind ?latency ?verify ~capacity ~id () =
  {
    id;
    agent = Agent.create ?kind ?latency ?verify ~capacity ();
    queue = Coalesce.create ();
    touched = [];
    telemetry = Telemetry.create ();
    kind;
    latency;
    verify;
    capacity;
  }

let of_rules ?kind ?latency ?verify ~capacity ~id rules =
  {
    id;
    agent = Agent.of_rules ?kind ?latency ?verify ~capacity rules;
    queue = Coalesce.create ();
    touched = [];
    telemetry = Telemetry.create ();
    kind;
    latency;
    verify;
    capacity;
  }

let id t = t.id
let agent t = t.agent
let published t = Agent.published t.agent
let lookup_published t packet = Agent.lookup_published t.agent packet
let telemetry t = t.telemetry
let queue_depth t = Coalesce.depth t.queue
let set_fault t f = Agent.set_fault t.agent f

(* A whole-shard restart: the agent process dies and comes back holding
   [rules] (what the journal checkpoint says it should hold).  Volatile
   state — queue, pending ops — is lost; the hardware fault plan survives
   because the fault is in the switch, not the agent process — and so
   does the dead map (the dead rows are in the silicon too), so the fresh
   placement packs around the known holes instead of rediscovering them
   write failure by write failure. *)
let reset t rules =
  let fault = Agent.fault t.agent in
  let deadmap = Tcam.deadmap (Agent.tcam t.agent) in
  let place ?deadmap () =
    Agent.of_rules ?kind:t.kind ?latency:t.latency ?verify:t.verify ?deadmap
      ~capacity:t.capacity rules
  in
  t.agent <-
    (try place ~deadmap ()
     with Invalid_argument _ when Fr_tcam.Deadmap.count deadmap > 0 ->
       (* A rule that sat on a row before the row was found dead still
          counts, so the table may not fit around the known holes: place
          it as on fresh hardware and let the writes find them again. *)
       place ());
  Agent.set_fault t.agent fault;
  Coalesce.clear t.queue

let dead_rows t = Agent.dead_rows t.agent
let probe_dead t = Agent.probe_dead t.agent

let installed t fm = Agent.rule t.agent (Agent.mod_id fm) <> None

(* Re-enqueue work the service already counted once: retried casualties
   and journal replay go through here so [submitted] stays an arrival
   count, not an attempt count. *)
let requeue ?epoch t fm =
  t.touched <- Agent.mod_id fm :: t.touched;
  Coalesce.push ?epoch t.queue ~installed:(installed t fm) fm

let submit ?epoch t fm =
  Telemetry.record_submitted t.telemetry;
  requeue ?epoch t fm

let has_work t = not (Coalesce.is_empty t.queue)
let pending_mods t = Coalesce.pending_ops t.queue
let has_pending_id t id = Coalesce.mem t.queue id

(* An id still queued (behind a quarantined breaker) can still leave the
   shard at a later drain, so it stays touched — once. *)
let take_touched t =
  let ids = t.touched in
  t.touched <-
    (if Coalesce.depth t.queue = 0 then []
     else List.sort_uniq Int.compare (List.filter (has_pending_id t) ids));
  ids

type drain_result = {
  shard : int;
  applied : int;
  failed : (Agent.flow_mod * string) list;
  coalesced : int;
  firmware_ms : float;
  hardware_ms : float;
  tcam_ops : int;
  wall_ms : float;
}

let empty_result ~shard =
  {
    shard;
    applied = 0;
    failed = [];
    coalesced = 0;
    firmware_ms = 0.0;
    hardware_ms = 0.0;
    tcam_ops = 0;
    wall_ms = 0.0;
  }

let drain t =
  let plan = Coalesce.pending_ops t.queue in
  let rejections = Coalesce.rejected t.queue in
  let coalesced = Coalesce.coalesced t.queue in
  let depth = Coalesce.depth t.queue in
  Coalesce.clear t.queue;
  let fw0 = Agent.firmware_ms_total t.agent in
  let hw0 = Agent.tcam_ms_total t.agent in
  let ops0 = Tcam.ops_issued (Agent.tcam t.agent) in
  let moves0 = Tcam.moves_issued (Agent.tcam t.agent) in
  let applied = ref 0 and failed = ref (List.rev rejections) in
  let (), wall_ms =
    Measure.time_ms (fun () ->
        List.iter
          (fun fm ->
            match Agent.apply t.agent fm with
            | Ok () -> incr applied
            | Error e -> failed := (fm, e) :: !failed)
          plan)
  in
  let result =
    {
      shard = t.id;
      applied = !applied;
      failed = List.rev !failed;
      coalesced;
      firmware_ms = Agent.firmware_ms_total t.agent -. fw0;
      hardware_ms = Agent.tcam_ms_total t.agent -. hw0;
      tcam_ops = Tcam.ops_issued (Agent.tcam t.agent) - ops0;
      wall_ms;
    }
  in
  Telemetry.record_coalesced t.telemetry coalesced;
  Telemetry.record_rejected t.telemetry (List.length rejections);
  Telemetry.record_drain t.telemetry ~queue_depth:depth ~applied:!applied
    ~failed:(List.length result.failed)
    ~firmware_ms:result.firmware_ms ~hardware_ms:result.hardware_ms
    ~tcam_ops:result.tcam_ops
    ~moves:(Tcam.moves_issued (Agent.tcam t.agent) - moves0)
    ~wall_ms;
  result
