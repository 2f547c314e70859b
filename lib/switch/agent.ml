module Rule = Fr_tern.Rule
module Tcam = Fr_tcam.Tcam
module Op = Fr_tcam.Op
module Layout = Fr_tcam.Layout
module Latency = Fr_tcam.Latency
module Graph = Fr_dag.Graph
module Build = Fr_dag.Build
module Overlap_index = Fr_dag.Overlap_index
module Algo = Fr_sched.Algo
module Check = Fr_sched.Check

type flow_mod =
  | Add of Rule.t
  | Set_action of { id : int; action : Rule.action }
  | Remove of { id : int }

let pp_flow_mod ppf = function
  | Add r -> Format.fprintf ppf "add %a" Rule.pp r
  | Set_action { id; action } ->
      Format.fprintf ppf "set-action %d -> %a" id Rule.pp_action action
  | Remove { id } -> Format.fprintf ppf "remove %d" id

let mod_id = function
  | Add r -> r.Rule.id
  | Set_action { id; _ } | Remove { id } -> id

type t = {
  store : (int, Rule.t) Hashtbl.t;
  index : Overlap_index.t;  (* narrows the per-Add overlap scan *)
  graph : Graph.t;
  tcam : Tcam.t;
  algo : Algo.t;
  latency : Latency.t;
  verify : bool;
  mutable fault : Fr_tcam.Fault.t option;
  mutable fw_ms : float;
  mutable tcam_ms : float;
  mutable verify_ms : float;
  mutable verified_ops : int;
  mutable mods : int;
  counters : (int, int) Hashtbl.t;  (* rule id -> packets matched *)
  mutable packets : int;
  mutable misses : int;
  mutable retired_hits : int;  (* snapshot hits whose rule has been removed *)
  published : Fr_tcam.Image.t Atomic.t;  (* the wait-free read face *)
  mutable publish_observer : (Fr_tcam.Image.t -> unit) option;
}

(* Every committed hardware op (and payload bind/unbind) republishes: one
   atomic store here, one atomic load on the reader side.  The observer
   rides along for the conformance oracle, which wants every mid-cascade
   instant, not just the latest. *)
let install_publisher t =
  Atomic.set t.published (Tcam.image t.tcam);
  Tcam.set_publisher t.tcam
    (Some
       (fun img ->
         Atomic.set t.published img;
         match t.publish_observer with Some f -> f img | None -> ()))

let default_kind = Firmware.FR_O Fr_sched.Store.Bit_backend

let default_scheduler kind ~graph ~tcam = Firmware.make_scheduler kind ~graph ~tcam

let create ?(kind = default_kind) ?scheduler ?(latency = Latency.default)
    ?(verify = false) ~capacity () =
  let tcam = Tcam.create ~size:capacity in
  let graph = Graph.create () in
  let make = Option.value scheduler ~default:(default_scheduler kind) in
  let t =
    {
      store = Hashtbl.create 64;
      index = Overlap_index.create ();
      graph;
      tcam;
      algo = make ~graph ~tcam;
      latency;
      verify;
      fault = None;
      fw_ms = 0.0;
      tcam_ms = 0.0;
      verify_ms = 0.0;
      verified_ops = 0;
      mods = 0;
      counters = Hashtbl.create 64;
      packets = 0;
      misses = 0;
      retired_hits = 0;
      published = Atomic.make Fr_tcam.Image.empty;
      publish_observer = None;
    }
  in
  install_publisher t;
  t

let of_rules ?(kind = default_kind) ?scheduler ?(latency = Latency.default)
    ?(verify = false) ?deadmap ~capacity rules =
  let store = Hashtbl.create (2 * Array.length rules) in
  Array.iter
    (fun (r : Rule.t) ->
      if Hashtbl.mem store r.Rule.id then
        invalid_arg (Printf.sprintf "Agent.of_rules: duplicate id %d" r.Rule.id);
      Hashtbl.replace store r.Rule.id r)
    rules;
  let index = Overlap_index.create () in
  let graph = Build.compile_fast ~index rules in
  let order = Fr_workload.Dataset.precedence_order rules in
  let layout = Firmware.layout_of kind in
  let tcam =
    Layout.place ?deadmap ~payload:(Hashtbl.find_opt store) layout
      ~tcam_size:capacity ~order
  in
  let make = Option.value scheduler ~default:(default_scheduler kind) in
  let t =
    {
      store;
      index;
      graph;
      tcam;
      algo = make ~graph ~tcam;
      latency;
      verify;
      fault = None;
      fw_ms = 0.0;
      tcam_ms = 0.0;
      verify_ms = 0.0;
      verified_ops = 0;
      mods = 0;
      counters = Hashtbl.create 64;
      packets = 0;
      misses = 0;
      retired_hits = 0;
      published = Atomic.make Fr_tcam.Image.empty;
      publish_observer = None;
    }
  in
  install_publisher t;
  t

let existing t = Hashtbl.fold (fun _ r acc -> r :: acc) t.store []
let set_fault t f = t.fault <- f

(* The error an injected hardware failure reports; [is_fault] tells it
   from scheduling errors. *)
let fault_prefix = "fault: injected write failure on "
let is_fault e = String.starts_with ~prefix:fault_prefix e

(* Apply op-by-op, asking the fault plan before each op; the applied
   prefix stays — a verified sequence keeps the dependency invariant after
   every single op, so stopping mid-sequence leaves a consistent table.
   Writes and erases take different fault paths (stuck rows reject new
   content but their valid bit still clears), and every failed write is
   reported to the dead map — this is how the firmware discovers dead
   rows in the first place. *)
let apply_faulted t fault ops =
  let rec go applied = function
    | [] -> (List.rev applied, Ok ())
    | op :: rest ->
        let addr = Op.addr op in
        let failed =
          match op with
          | Op.Insert _ ->
              if Fr_tcam.Fault.should_fail fault ~addr then begin
                ignore (Tcam.note_write_failure t.tcam ~addr);
                true
              end
              else false
          | Op.Delete _ -> Fr_tcam.Fault.should_fail_erase fault ~addr
        in
        if failed then
          ( List.rev applied,
            Error (Format.asprintf "%s%a" fault_prefix Op.pp op) )
        else begin
          Tcam.apply_sequence t.tcam [ op ];
          go (op :: applied) rest
        end
  in
  go [] ops

(* [landed] runs once the applied ops are on the hardware and before the
   scheduler's bookkeeping, so the metric refresh reads the graph the
   update leaves behind. *)
let commit ?(landed = ignore) t ops =
  (if t.verify then begin
     let r, dt = Measure.time_ms (fun () -> Check.sequence t.graph t.tcam ops) in
     t.verify_ms <- t.verify_ms +. dt;
     t.verified_ops <- t.verified_ops + List.length ops;
     match r with Ok () -> Ok () | Error e -> Error ("verify: " ^ e)
   end
   else Ok ())
  |> function
  | Error _ as e -> e
  | Ok () ->
      let applied, outcome =
        match t.fault with
        | None ->
            Tcam.apply_sequence t.tcam ops;
            (ops, Ok ())
        | Some fault -> apply_faulted t fault ops
      in
      t.tcam_ms <- t.tcam_ms +. Latency.sequence_ms t.latency applied;
      (* Latency faults slow every op actually driven to hardware. *)
      (match t.fault with
      | Some f ->
          t.tcam_ms <-
            t.tcam_ms +. (Fr_tcam.Fault.slow_ms f *. float (List.length applied))
      | None -> ());
      landed ();
      (* The metric refreshes recompute from the TCAM's actual state, so
         feeding them the applied prefix keeps the store truthful even
         after a mid-sequence fault. *)
      let (), dt = Measure.time_ms (fun () -> t.algo.Algo.after_apply applied) in
      t.fw_ms <- t.fw_ms +. dt;
      (match outcome with Ok () -> t.mods <- t.mods + 1 | Error _ -> ());
      outcome

let rec apply t fm =
  match fm with
  | Add rule ->
      if Hashtbl.mem t.store rule.Rule.id then
        Error (Printf.sprintf "rule %d already installed" rule.Rule.id)
      else begin
        let (deps, dependents), dt_compile =
          Measure.time_ms (fun () ->
              (* Only overlapping rules can contribute constraints, so the
                 index-narrowed set is equivalent to the full table. *)
              Build.dependencies_of t.graph
                ~existing:(Overlap_index.overlapping t.index rule)
                rule)
        in
        Graph.add_node t.graph rule.Rule.id;
        List.iter (fun v -> Graph.add_edge t.graph rule.Rule.id v) deps;
        List.iter (fun u -> Graph.add_edge t.graph u rule.Rule.id) dependents;
        let result, dt_sched =
          Measure.time_ms (fun () ->
              t.algo.Algo.schedule_insert ~rule_id:rule.Rule.id ~deps ~dependents)
        in
        t.fw_ms <- t.fw_ms +. dt_compile +. dt_sched;
        match result with
        | Error _ as e ->
            Graph.remove_node t.graph rule.Rule.id;
            e
        | Ok ops -> (
            (* Bind the payload before the sequence commits: the op that
               writes the new entry publishes a snapshot that must already
               resolve this id. *)
            Tcam.bind_rule t.tcam rule;
            match commit t ops with
            | Error _ as e ->
                Graph.remove_node t.graph rule.Rule.id;
                if not (Tcam.mem t.tcam rule.Rule.id) then
                  Tcam.unbind_rule t.tcam ~id:rule.Rule.id;
                e
            | Ok () ->
                Hashtbl.replace t.store rule.Rule.id rule;
                Overlap_index.add t.index rule;
                Ok ())
      end
  | Set_action { id; action } -> (
      match (Hashtbl.find_opt t.store id, Tcam.addr_of t.tcam id) with
      | Some rule, Some addr when Tcam.is_dead t.tcam addr -> (
          (* The entry sits on a row that rejects writes: an in-place
             rewrite would fail forever.  Relocate through the scheduler's
             own Remove + Add path so every region/rank invariant is
             maintained; the transient absence is invisible at flow-mod
             boundaries.  The Remove only goes ahead when a writable free
             row exists, and a re-Add that hits another stuck row is
             retried: the failed write struck that row in the dead map, so
             the next schedule steps around it.  Each retry needs a fresh
             strike, so the loop ends within [threshold * size] attempts. *)
          let size = Tcam.size t.tcam in
          if Tcam.writable_free_in t.tcam ~lo:0 ~hi:(size - 1) = None then
            Error (Printf.sprintf "relocate: no writable row for rule %d" id)
          else
            match apply t (Remove { id }) with
            | Error _ as e -> e
            | Ok () ->
                let budget =
                  size * Fr_tcam.Deadmap.threshold (Tcam.deadmap t.tcam)
                in
                let rec readd attempt =
                  match apply t (Add (Rule.with_action rule action)) with
                  | Ok () -> Ok ()
                  | Error e when is_fault e && attempt < budget ->
                      readd (attempt + 1)
                  | Error e -> Error ("relocate: " ^ e)
                in
                readd 1)
      | Some rule, Some addr -> (
          (* One in-place hardware write; the dependency graph is
             action-agnostic so no reordering can be needed. *)
          let ops = [ Op.insert ~rule_id:id ~addr ] in
          match commit t ops with
          | Error _ as e -> e
          | Ok () ->
              let updated = Rule.with_action rule action in
              Hashtbl.replace t.store id updated;
              Overlap_index.add t.index updated;
              (* Rebind after the write commits: the snapshot carrying the
                 new payload is the post-state, the one before it the
                 pre-state — matching is action-agnostic so both answer
                 lookups identically. *)
              Tcam.bind_rule t.tcam updated;
              Ok ())
      | _ -> Error (Printf.sprintf "rule %d is not installed" id))
  | Remove { id } -> (
      if not (Hashtbl.mem t.store id) then
        Error (Printf.sprintf "rule %d is not installed" id)
      else
        let result, dt =
          Measure.time_ms (fun () -> t.algo.Algo.schedule_delete ~rule_id:id)
        in
        t.fw_ms <- t.fw_ms +. dt;
        (* Contract once the erase has landed and before the metric
           refresh: the removed rule's dependents are measured against the
           contracted graph.  Contraction keeps transitive shadowing order
           alive. *)
        let landed () =
          if not (Tcam.mem t.tcam id) then
            Graph.remove_node ~contract:true t.graph id
        in
        let finish () =
          (match Hashtbl.find_opt t.store id with
          | Some r -> Overlap_index.remove t.index r
          | None -> ());
          Hashtbl.remove t.store id;
          Hashtbl.remove t.counters id;
          (* Unbind only after the entry has left the slots: snapshots
             taken during the trailing balance moves still resolve every
             id they can match. *)
          Tcam.unbind_rule t.tcam ~id
        in
        match result with
        | Error _ as e -> e
        | Ok ops -> (
            match commit ~landed t ops with
            | Error e when not (Tcam.mem t.tcam id) ->
                (* A fault interrupted the sequence after the erase itself
                   landed (e.g. before a balance move): the entry is gone
                   from hardware, so complete the logical removal — the
                   recovery that keeps store and TCAM agreeing — but still
                   report the casualty. *)
                finish ();
                Error (e ^ " (entry removed; trailing moves abandoned)")
            | Error _ as e -> e
            | Ok () ->
                finish ();
                Ok ()))

let lookup t packet =
  t.packets <- t.packets + 1;
  match Tcam.lookup t.tcam ~rules:(Hashtbl.find t.store) packet with
  | Some id ->
      Hashtbl.replace t.counters id
        (1 + Option.value (Hashtbl.find_opt t.counters id) ~default:0);
      Hashtbl.find_opt t.store id
  | None ->
      t.misses <- t.misses + 1;
      None

let packet_count t id = Option.value (Hashtbl.find_opt t.counters id) ~default:0
let total_packets t = t.packets
let miss_count t = t.misses
let retired_hits t = t.retired_hits

let published t = Atomic.get t.published

let lookup_published t packet =
  Fr_tcam.Image.lookup (Atomic.get t.published) packet

let set_publish_observer t f = t.publish_observer <- f

(* Reader domains tally hits against whatever snapshots they held; the
   merge happens on the agent's own domain after they join.  A tallied
   rule may have been removed since the snapshot that served it — those
   packets were genuinely forwarded by that rule, so they are kept as
   [retired_hits] rather than silently dropped (the counter fix: packets
   served from an image still account to the winning rule). *)
let account_hits t ~misses tallies =
  List.iter
    (fun (id, n) ->
      if n < 0 then invalid_arg "Agent.account_hits: negative tally";
      if n > 0 then begin
        t.packets <- t.packets + n;
        if Hashtbl.mem t.store id then
          Hashtbl.replace t.counters id
            (n + Option.value (Hashtbl.find_opt t.counters id) ~default:0)
        else t.retired_hits <- t.retired_hits + n
      end)
    tallies;
  if misses < 0 then invalid_arg "Agent.account_hits: negative misses";
  t.packets <- t.packets + misses;
  t.misses <- t.misses + misses

(* Highest priority wins; equal priorities resolve to the smaller id — the
   same total order the compiler's "beats" uses. *)
let semantic_lookup t packet =
  Hashtbl.fold
    (fun _ (r : Rule.t) best ->
      if not (Rule.matches_packet r packet) then best
      else
        match best with
        | None -> Some r
        | Some (b : Rule.t) ->
            if
              r.Rule.priority > b.Rule.priority
              || (r.Rule.priority = b.Rule.priority && r.Rule.id < b.Rule.id)
            then Some r
            else best)
    t.store None

(* Priority order (precedence) makes the snapshot canonical. *)
let snapshot t =
  let rules = Array.of_list (existing t) in
  Array.sort
    (fun (a : Rule.t) (b : Rule.t) ->
      let c = Int.compare b.Rule.priority a.Rule.priority in
      if c <> 0 then c else Int.compare a.Rule.id b.Rule.id)
    rules;
  Fr_workload.Rules_io.to_string rules

let save t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try output_string oc (snapshot t)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Sys.rename tmp path

let rule t id = Hashtbl.find_opt t.store id
let rule_count t = Hashtbl.length t.store
let capacity t = Tcam.size t.tcam
let rules t = existing t
let graph t = t.graph
let tcam t = t.tcam
let firmware_ms_total t = t.fw_ms
let tcam_ms_total t = t.tcam_ms
let verify_ms_total t = t.verify_ms
let verified_ops t = t.verified_ops
let mods_applied t = t.mods
let fault t = t.fault
let dead_rows t = Tcam.dead_count t.tcam

(* Heal drill: re-test every row the dead map condemns.  A probe is a
   scratch write-and-erase, so a row is recovered exactly when writes to
   it no longer fail — the fault plan's stuck set answers that without
   burning a spontaneous-failure draw (probes are retried on a bus
   glitch).  No plan installed means the hardware is healthy and every
   mark was spurious. *)
let probe_dead t =
  let dead = Tcam.deadmap t.tcam in
  let addrs = Fr_tcam.Deadmap.dead_list dead in
  let recovered = ref 0 in
  List.iter
    (fun addr ->
      let still_stuck =
        match t.fault with
        | Some f -> Fr_tcam.Fault.is_stuck f ~addr
        | None -> false
      in
      if (not still_stuck) && Fr_tcam.Deadmap.note_success dead ~addr then
        incr recovered)
    addrs;
  (List.length addrs, !recovered)

(* Recovery post-condition: the store, the TCAM image and the dependency
   graph must tell one coherent story before a rebuilt agent is put back
   in service. *)
let verify_consistent t =
  let stored = Hashtbl.length t.store in
  let in_tcam = Tcam.used_count t.tcam in
  if stored <> in_tcam then
    Error
      (Printf.sprintf "store holds %d rules but TCAM holds %d entries" stored
         in_tcam)
  else
    let missing =
      Hashtbl.fold
        (fun id _ acc -> if Tcam.mem t.tcam id then acc else id :: acc)
        t.store []
    in
    match missing with
    | id :: _ -> Error (Printf.sprintf "rule %d is stored but not in the TCAM" id)
    | [] -> (
        match Tcam.check_dag_order t.tcam t.graph with
        | Error e -> Error ("dependency order: " ^ e)
        | Ok () -> (
            match Tcam.image_consistent t.tcam with
            | Ok () -> Ok ()
            | Error e -> Error ("published image: " ^ e)))

let restore ?kind ?latency ?verify ~capacity path =
  match Fr_workload.Rules_io.load path with
  | Error _ as e -> e
  | Ok rules -> (
      match of_rules ?kind ?latency ?verify ~capacity rules with
      | t -> Ok t
      | exception Invalid_argument msg -> Error msg)
