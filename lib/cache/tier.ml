module Rule = Fr_tern.Rule
module Id_set = Rule.Id_set
module Agent = Fr_switch.Agent
module Ctrl = Fr_ctrl.Service
module Shard = Fr_ctrl.Shard
module Telemetry = Fr_ctrl.Telemetry

type phase = Mid_eviction | Settled

type t = {
  backing : Backing.t;
  service : Ctrl.t;
  slots : int;
  flush_every : int;
  policy : Policy.t;
  ranks : (int, int) Hashtbl.t;  (* topo rank: dependents rank lower *)
  telemetry : Telemetry.t;
  installed : (int, unit) Hashtbl.t;  (* physically in the TCAM *)
  mutable cached : Id_set.t;  (* target set; always closure-closed *)
  mutable pending_evict : Id_set.t;  (* = installed \ cached *)
  mutable pending_admit : Id_set.t;  (* = cached \ installed *)
  mutable tick : int;
  mutable since_flush : int;
  mutable rounds : int;
  mutable probe_hook : (phase -> unit) option;
  mutable degraded : string option;
}

let create ?kind ?latency ?domains ?(shards = 1) ?(flush_every = 64)
    ?(policy = Policy.Lru) ~slots ~backing () =
  if slots < 1 then invalid_arg "Tier.create: slots must be >= 1";
  if flush_every < 1 then invalid_arg "Tier.create: flush_every must be >= 1";
  (* Slots are a logical budget across the whole service; each shard gets
     TCAM headroom past a worst-case all-on-one-shard load so the
     schedulers never run out of moving room. *)
  let capacity = (2 * slots) + 16 in
  let service =
    Ctrl.create ?kind ?latency ?domains ~shards ~capacity ()
  in
  {
    backing;
    service;
    slots;
    flush_every;
    policy = Policy.create policy;
    ranks = Backing.topo_ranks backing;
    telemetry = Telemetry.create ~cache:true ();
    installed = Hashtbl.create (2 * slots);
    cached = Id_set.empty;
    pending_evict = Id_set.empty;
    pending_admit = Id_set.empty;
    tick = 0;
    since_flush = 0;
    rounds = 0;
    probe_hook = None;
    degraded = None;
  }

let slots t = t.slots
let policy t = Policy.kind t.policy
let backing t = t.backing
let service t = t.service
let cached_count t = Id_set.cardinal t.cached
let installed_count t = Hashtbl.length t.installed
let is_cached t id = Id_set.mem id t.cached
let cached_ids t = t.cached
let telemetry t = t.telemetry
let rounds t = t.rounds
let degraded t = t.degraded
let set_probe_hook t hook = t.probe_hook <- Some hook

(* Best TCAM match across shards.  Within a shard the dependency
   invariant makes the highest-address match the highest-precedence one;
   across shards we compare explicitly (priority, then lower id — the
   same tie-break as the semantic scan). *)
let tcam_lookup t pkt =
  let beats (a : Rule.t) (b : Rule.t) =
    a.Rule.priority > b.Rule.priority
    || (a.Rule.priority = b.Rule.priority && a.Rule.id < b.Rule.id)
  in
  let best = ref None in
  for s = 0 to Ctrl.shards t.service - 1 do
    match Agent.lookup (Shard.agent (Ctrl.shard t.service s)) pkt with
    | None -> ()
    | Some r -> (
        match !best with
        | Some b when beats b r -> ()
        | _ -> best := Some r)
  done;
  !best

let probe t pkt =
  match tcam_lookup t pkt with
  | Some r -> `Hit r
  | None -> `Miss (Backing.lookup t.backing pkt)

(* --- target-set transitions (buffered; hardware untouched) ----------- *)

let evict_id t id =
  t.cached <- Id_set.remove id t.cached;
  if Hashtbl.mem t.installed id then
    t.pending_evict <- Id_set.add id t.pending_evict
  else t.pending_admit <- Id_set.remove id t.pending_admit

let admit_id t id =
  t.cached <- Id_set.add id t.cached;
  if Id_set.mem id t.pending_evict then
    t.pending_evict <- Id_set.remove id t.pending_evict
  else t.pending_admit <- Id_set.add id t.pending_admit

let try_admit t (w : Rule.t) =
  let closure = Backing.admission_closure t.backing w.Rule.id in
  let fresh = Id_set.filter (fun id -> not (Id_set.mem id t.cached)) closure in
  let fresh_n = Id_set.cardinal fresh in
  if fresh_n = 0 then ()
  else if fresh_n > t.slots then
    (* The rule's dependency cone alone exceeds the cache: uncacheable. *)
    Telemetry.record_cache_admit_skip t.telemetry
  else begin
    let need = Id_set.cardinal t.cached + fresh_n - t.slots in
    let victims =
      if need <= 0 then Some Id_set.empty
      else
        Policy.victims t.policy
          ~candidates:(Id_set.elements (Id_set.diff t.cached closure))
          ~group_of:(fun id ->
            Backing.eviction_closure t.backing id ~cached:t.cached)
          ~protect:closure ~need
          ~limit:(Policy.score t.policy ~id:w.Rule.id)
    in
    match victims with
    | None -> Telemetry.record_cache_admit_skip t.telemetry
    | Some vs ->
        Id_set.iter (evict_id t) vs;
        Id_set.iter (admit_id t) fresh;
        Telemetry.record_cache_admission t.telemetry ~rules:fresh_n;
        if not (Id_set.is_empty vs) then
          Telemetry.record_cache_eviction t.telemetry
            ~rules:(Id_set.cardinal vs)
  end

(* --- maintenance ------------------------------------------------------ *)

let rank t id = try Hashtbl.find t.ranks id with Not_found -> max_int
let by_rank t ids = List.sort (fun a b -> compare (rank t a) (rank t b)) ids

let degrade t phase failures =
  if t.degraded = None && failures <> [] then begin
    let m, why = List.hd failures in
    t.degraded <-
      Some
        (Format.asprintf "%s flush: %a: %s (%d failures)" phase
           Agent.pp_flow_mod m why (List.length failures))
  end

(* Re-drive flush casualties once; Add failures additionally evict the
   cached rules that depended on the missing entry, restoring closure. *)
let repair t phase failures =
  match failures with
  | [] -> []
  | _ ->
      Telemetry.record_cache_repair t.telemetry;
      let retry, dropped =
        List.partition
          (fun (m, _) -> Agent.mod_id m |> Backing.mem t.backing)
          failures
      in
      List.iter (fun (m, _) -> Ctrl.submit t.service m) retry;
      let rep = Ctrl.flush t.service in
      let still = Ctrl.failures rep in
      degrade t phase (still @ dropped);
      List.map fst still

let run_flush t phase mods =
  List.iter (Ctrl.submit t.service) mods;
  let rep = Ctrl.flush t.service in
  let failed = repair t phase (Ctrl.failures rep) in
  let failed_ids =
    List.fold_left
      (fun s m -> Id_set.add (Agent.mod_id m) s)
      Id_set.empty failed
  in
  List.iter
    (fun m ->
      let id = Agent.mod_id m in
      if not (Id_set.mem id failed_ids) then
        match m with
        | Agent.Add _ -> Hashtbl.replace t.installed id ()
        | Agent.Remove _ -> Hashtbl.remove t.installed id
        | Agent.Set_action _ -> ())
    mods;
  (* An Add that stayed failed leaves a hole: evict its cached dependents
     so the installed set is closed again. *)
  Id_set.iter
    (fun id ->
      if Id_set.mem id t.cached then begin
        let group = Backing.eviction_closure t.backing id ~cached:t.cached in
        Id_set.iter (evict_id t) group
      end)
    failed_ids

let fire t phase = match t.probe_hook with None -> () | Some f -> f phase

let maintain t =
  t.since_flush <- 0;
  if
    not (Id_set.is_empty t.pending_evict && Id_set.is_empty t.pending_admit)
  then begin
    t.rounds <- t.rounds + 1;
    (* Phase 1: evictions, dependents first. *)
    let deletes = by_rank t (Id_set.elements t.pending_evict) in
    t.pending_evict <- Id_set.empty;
    if deletes <> [] then begin
      run_flush t "evict"
        (List.map (fun id -> Agent.Remove { id }) deletes);
      fire t Mid_eviction
    end;
    (* Phase 2: admissions, dependencies first. *)
    let adds = by_rank t (Id_set.elements t.pending_admit) in
    let adds = List.rev adds in
    t.pending_admit <- Id_set.empty;
    if adds <> [] then
      run_flush t "admit"
        (List.filter_map
           (fun id ->
             match Backing.rule t.backing id with
             | Some r -> Some (Agent.Add r)
             | None -> None)
           adds);
    Telemetry.record_cache_flush t.telemetry ~inserts:(List.length adds)
      ~deletes:(List.length deletes);
    fire t Settled
  end

let access t pkt =
  t.tick <- t.tick + 1;
  t.since_flush <- t.since_flush + 1;
  let result =
    match tcam_lookup t pkt with
    | Some r ->
        Telemetry.record_cache_hit t.telemetry;
        Policy.touch t.policy ~id:r.Rule.id ~tick:t.tick;
        `Hit r
    | None ->
        Telemetry.record_cache_miss t.telemetry;
        let ans = Backing.lookup t.backing pkt in
        (match ans with
        | Some w ->
            Policy.note_miss t.policy ~id:w.Rule.id ~tick:t.tick;
            if
              (not (Id_set.mem w.Rule.id t.cached))
              && Policy.should_admit t.policy ~id:w.Rule.id
            then try_admit t w
        | None -> ());
        `Miss ans
  in
  if t.since_flush >= t.flush_every then maintain t;
  result
