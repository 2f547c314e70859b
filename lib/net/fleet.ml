module Rule = Fr_tern.Rule
module Header = Fr_tern.Header
module Agent = Fr_switch.Agent
module Firmware = Fr_switch.Firmware
module Measure = Fr_switch.Measure
module Service = Fr_ctrl.Service
module Shard = Fr_ctrl.Shard
module Journal = Fr_resil.Journal
module Breaker = Fr_resil.Breaker
module Backoff = Fr_resil.Backoff
module Fault = Fr_tcam.Fault
module Rng = Fr_prng.Rng
module Pool = Fr_exec.Pool

type t = {
  topo : Topo.t;
  kind : Firmware.algo_kind;
  domains : int;
  services : Service.t array;
  stamps : (int, int) Hashtbl.t;
  journal : string option;
  mutable log : out_channel option;
  mutable crashed : bool;
}

let meta_file dir = Filename.concat dir "fleet.meta"
let rollout_file dir = Filename.concat dir "rollout.log"
let node_dir dir i = Filename.concat dir (Printf.sprintf "node-%d" i)

(* ------------------------------------------------------------------ *)
(* Line codecs for the fleet metadata and the rollout log.             *)

let flow_to_line (f : Policy.flow) =
  Printf.sprintf "%d %Ld %d %s %s" f.flow_id f.dst_value f.plen
    (String.concat "," (List.map string_of_int f.path))
    (match f.waypoint with None -> "-" | Some w -> string_of_int w)

let flow_of_line line =
  match String.split_on_char ' ' line with
  | [ id; dst; plen; path; wp ] -> (
      try
        Some
          {
            Policy.flow_id = int_of_string id;
            dst_value = Int64.of_string dst;
            plen = int_of_string plen;
            path = List.map int_of_string (String.split_on_char ',' path);
            waypoint = (if wp = "-" then None else Some (int_of_string wp));
          }
      with _ -> None)
  | _ -> None

let write_meta dir t =
  let oc = open_out (meta_file dir) in
  Printf.fprintf oc "fleet 1\n";
  Printf.fprintf oc "topo %s %d\n" (Topo.shape_name t.topo) (Topo.nodes t.topo);
  List.iter (fun (u, v) -> Printf.fprintf oc "link %d %d\n" u v) (Topo.links t.topo);
  Printf.fprintf oc "kind %s\n" (Firmware.algo_kind_name t.kind);
  Hashtbl.fold (fun fid v acc -> (fid, v) :: acc) t.stamps []
  |> List.sort compare
  |> List.iter (fun (fid, v) -> Printf.fprintf oc "stamp %d %d\n" fid v);
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let read_meta dir =
  let path = meta_file dir in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no fleet metadata at %s" path)
  else
    let lines = read_lines path in
    let nodes = ref 0
    and shape = ref "custom"
    and links = ref []
    and kind = ref None
    and stamps = ref [] in
    let bad = ref None in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "fleet"; _ ] -> ()
        | [ "topo"; name; n ] ->
            shape := name;
            nodes := int_of_string n
        | [ "link"; u; v ] ->
            links := (int_of_string u, int_of_string v) :: !links
        | [ "kind"; k ] -> kind := Firmware.algo_kind_of_string k
        | [ "stamp"; fid; v ] ->
            stamps := (int_of_string fid, int_of_string v) :: !stamps
        | _ -> bad := Some line)
      lines;
    match !bad with
    | Some line -> Error ("malformed fleet.meta line: " ^ line)
    | None -> (
        match !kind with
        | None -> Error "fleet.meta: missing or unknown kind"
        | Some kind ->
            let topo =
              match Topo.shape_of_string !shape with
              | Some s -> Topo.make s !nodes
              | None -> Topo.make_links ~nodes:!nodes (List.rev !links)
            in
            Ok (topo, kind, List.sort compare !stamps))

type rollout_state = {
  ro_batch : int;
  ro_old : Policy.t;
  ro_new : Policy.t;
  ro_stamps : (int * int) list;
  ro_begun : int list;  (** ascending *)
  ro_committed : int list;  (** ascending *)
  ro_done : bool;
  ro_abort : int option;  (** [abort_begin]'s round prefix bound *)
  ro_rb_begun : int list;  (** begun rollback rounds, ascending *)
  ro_rb_committed : int list;  (** committed rollback rounds, ascending *)
  ro_aborted : bool;  (** [abort_done] seen — rollback finished *)
}

let read_rollout dir =
  let path = rollout_file dir in
  if not (Sys.file_exists path) then Ok None
  else
    let lines = read_lines path in
    let batch = ref 0
    and old_p = ref []
    and new_p = ref []
    and stamps = ref []
    and begun = ref []
    and committed = ref []
    and finished = ref false
    and abort = ref None
    and rb_begun = ref []
    and rb_committed = ref []
    and aborted = ref false
    and bad = ref None in
    List.iter
      (fun line ->
        let flow_tail prefix =
          String.sub line (String.length prefix)
            (String.length line - String.length prefix)
        in
        if line = "plan" || line = "done" || line = "abort_done" then begin
          if line = "done" then finished := true;
          if line = "abort_done" then aborted := true
        end
        else if String.length line > 4 && String.sub line 0 4 = "old " then (
          match flow_of_line (flow_tail "old ") with
          | Some f -> old_p := f :: !old_p
          | None -> bad := Some line)
        else if String.length line > 4 && String.sub line 0 4 = "new " then (
          match flow_of_line (flow_tail "new ") with
          | Some f -> new_p := f :: !new_p
          | None -> bad := Some line)
        else
          match String.split_on_char ' ' line with
          | [ "rollout"; b ] -> (
              match String.split_on_char '=' b with
              | [ "batch"; n ] -> batch := int_of_string n
              | _ -> bad := Some line)
          | [ "stamp"; fid; v ] ->
              stamps := (int_of_string fid, int_of_string v) :: !stamps
          | [ "begin"; k ] -> begun := int_of_string k :: !begun
          | [ "rbegin"; k ] -> rb_begun := int_of_string k :: !rb_begun
          | [ "commit"; k ] -> committed := int_of_string k :: !committed
          | [ "rcommit"; k ] -> rb_committed := int_of_string k :: !rb_committed
          | [ "abort_begin"; k ] -> abort := Some (int_of_string k)
          | _ -> bad := Some line)
      lines;
    match !bad with
    | Some line -> Error ("malformed rollout.log line: " ^ line)
    | None ->
        Ok
          (Some
             {
               ro_batch = !batch;
               ro_old = List.rev !old_p;
               ro_new = List.rev !new_p;
               ro_stamps = List.sort compare !stamps;
               ro_begun = List.sort compare !begun;
               ro_committed = List.sort compare !committed;
               ro_done = !finished;
               ro_abort = !abort;
               ro_rb_begun = List.sort compare !rb_begun;
               ro_rb_committed = List.sort compare !rb_committed;
               ro_aborted = !aborted;
             })

(* ------------------------------------------------------------------ *)
(* Construction and accessors.                                         *)

let ensure_alive t =
  if t.crashed then invalid_arg "Fleet: fleet used after simulated crash"

let of_policy ?(kind = Firmware.FR_O Fr_sched.Store.Bit_backend) ?(shards = 2)
    ?(capacity = 64) ?domains ?journal ?(version_of = fun _ -> 0) topo policy =
  (match Policy.check topo policy with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fleet.of_policy: " ^ e));
  let domains =
    match domains with Some d -> d | None -> Service.default_domains ()
  in
  (match journal with
  | None -> ()
  | Some dir ->
      Journal.ensure_dir dir;
      if Sys.file_exists (meta_file dir) then
        invalid_arg
          "Fleet.of_policy: journal directory already holds a fleet — recover \
           from it instead");
  let n = Topo.nodes topo in
  let per_node = Array.make n [] in
  List.iter
    (fun f ->
      List.iter
        (fun (node, r) -> per_node.(node) <- r :: per_node.(node))
        (Policy.hop_rules topo f ~version:(version_of f)))
    policy;
  let services =
    Array.init n (fun i ->
        let rules = Array.of_list (List.rev per_node.(i)) in
        try
          Service.of_rules ~kind
            ?journal:(Option.map (fun d -> node_dir d i) journal)
            ~domains ~shards ~capacity rules
        with Invalid_argument m ->
          invalid_arg
            (Printf.sprintf
               "Fleet.of_policy: node %d's %d rules do not load into %d \
                shards of %d TCAM slots (%s)"
               i (Array.length rules) shards capacity m))
  in
  let stamps = Hashtbl.create 16 in
  List.iter
    (fun (f : Policy.flow) -> Hashtbl.replace stamps f.flow_id (version_of f))
    policy;
  let t =
    { topo; kind; domains; services; stamps; journal; log = None; crashed = false }
  in
  Option.iter (fun dir -> write_meta dir t) journal;
  t

let topo t = t.topo
let kind_name t = Firmware.algo_kind_name t.kind
let domains t = t.domains
let journaled t = t.journal <> None

let node t i =
  if i < 0 || i >= Array.length t.services then
    invalid_arg "Fleet.node: out of range";
  t.services.(i)

let stamps t =
  Hashtbl.fold (fun fid v acc -> (fid, v) :: acc) t.stamps []
  |> List.sort compare

let stamp t fid = Hashtbl.find_opt t.stamps fid

(* Cross-shard winner at one node — same total order as
   [Agent.semantic_lookup] within a shard. *)
let lookup t i pkt =
  let svc = node t i in
  let best = ref None in
  for s = 0 to Service.shards svc - 1 do
    match Agent.lookup (Shard.agent (Service.shard svc s)) pkt with
    | None -> ()
    | Some (r : Rule.t) -> (
        match !best with
        | Some (b : Rule.t)
          when b.priority > r.priority
               || (b.priority = r.priority && b.id < r.id) ->
            ()
        | _ -> best := Some r)
  done;
  !best

let rules t i =
  let svc = node t i in
  let acc = ref [] in
  for s = 0 to Service.shards svc - 1 do
    acc := Agent.rules (Shard.agent (Service.shard svc s)) @ !acc
  done;
  List.sort (fun (a : Rule.t) b -> compare a.id b.id) !acc

(* ------------------------------------------------------------------ *)
(* Rollouts.                                                           *)

type probe = t -> round:int -> where:string -> unit
type crash_mode = Boundary | Mid_submit

type hold = Wait | Abort

type supervision = {
  deadline_ms : float;
  retries : int;
  breaker_threshold : int;
  breaker_slow_threshold : int;
  breaker_cooldown : int;
  hold : hold;
  hold_budget : int;
  sup_seed : int;
}

let default_supervision =
  {
    deadline_ms = infinity;
    retries = 2;
    breaker_threshold = 2;
    breaker_slow_threshold = 2;
    breaker_cooldown = 1;
    hold = Wait;
    hold_budget = 16;
    sup_seed = 97;
  }

type outcome =
  | Completed
  | Crashed
  | Held of int
  | Aborted of { at_round : int; rolled_back : int }

let outcome_to_string = function
  | Completed -> "completed"
  | Crashed -> "crashed"
  | Held k -> Printf.sprintf "held@%d" k
  | Aborted { at_round; rolled_back } ->
      Printf.sprintf "aborted@%d-%d" at_round rolled_back

type round_stat = {
  r_index : int;
  r_kind : Plan.kind;
  r_switches : int;
  r_mods : int;
  r_wall_ms : float;
}

type report = {
  completed : bool;
  outcome : outcome;
  rounds_run : int;
  applied : int;
  failed : int;
  retried : int;
  quarantines : int;
  recovered : int;
  backoff_ms : float;
  wall_ms : float;
  per_round : round_stat list;
}

let log_line t fmt =
  Printf.ksprintf
    (fun s ->
      match t.log with
      | None -> ()
      | Some oc ->
          output_string oc (s ^ "\n");
          flush oc)
    fmt

let close_log t =
  match t.log with
  | None -> ()
  | Some oc ->
      close_out oc;
      t.log <- None

let open_rollout t plan =
  match t.journal with
  | None -> ()
  | Some dir ->
      t.log <- Some (open_out (rollout_file dir));
      log_line t "rollout batch=%d" (Plan.batch plan);
      List.iter
        (fun f -> log_line t "old %s" (flow_to_line f))
        (Plan.old_policy plan);
      List.iter
        (fun f -> log_line t "new %s" (flow_to_line f))
        (Plan.new_policy plan);
      List.iter
        (fun (fid, v) -> log_line t "stamp %d %d" fid v)
        (Plan.stamps_before plan);
      log_line t "plan"

(* Has the crash-era journal already accounted for this mod?  Only
   meaningful after every node flushed its requeued intent. *)
let accounted t node (m : Agent.flow_mod) =
  match m with
  | Add r -> Service.find_rule t.services.(node) r.id <> None
  | Remove { id } -> Service.find_rule t.services.(node) id = None
  | Set_action _ -> false

let apply_round ?probe ~idempotent t (r : Plan.round) =
  let applied = ref 0 and failed = ref 0 in
  let (), wall_ms =
    Measure.time_ms (fun () ->
        let batches =
          if not idempotent then r.batches
          else
            List.filter_map
              (fun (node, mods) ->
                match
                  List.filter (fun m -> not (accounted t node m)) mods
                with
                | [] -> None
                | ms -> Some (node, ms))
              r.batches
        in
        List.iter
          (fun (node, mods) -> Service.submit_all t.services.(node) mods)
          batches;
        let flush_node n =
          let rep = Service.flush t.services.(n) in
          (Service.applied rep, List.length (Service.failures rep))
        in
        let touched = List.map fst batches in
        (match probe with
        | Some p ->
            (* Sequential node order: the callback observes every
               per-node flush boundary as a reachable instant. *)
            List.iter
              (fun n ->
                let a, f = flush_node n in
                applied := !applied + a;
                failed := !failed + f;
                p t ~round:r.index
                  ~where:(Printf.sprintf "round %d after node %d" r.index n))
              touched
        | None ->
            if t.domains > 1 && List.length touched > 1 then begin
              let pool =
                Pool.shared ~workers:(min (t.domains - 1) (List.length touched))
              in
              let joined =
                Pool.run_all pool
                  (Array.of_list
                     (List.map (fun n () -> flush_node n) touched))
              in
              (* Deterministic join in node order; first failure wins. *)
              Array.iter
                (function
                  | Ok (a, f) ->
                      applied := !applied + a;
                      failed := !failed + f
                  | Error _ -> ())
                joined;
              Array.iter
                (function Error e -> raise e | Ok _ -> ())
                joined
            end
            else
              List.iter
                (fun n ->
                  let a, f = flush_node n in
                  applied := !applied + a;
                  failed := !failed + f)
                touched);
        List.iter
          (fun (fid, v) ->
            (match v with
            | Some v -> Hashtbl.replace t.stamps fid v
            | None -> Hashtbl.remove t.stamps fid);
            Option.iter
              (fun p ->
                p t ~round:r.index
                  ~where:
                    (Printf.sprintf "round %d after flip of flow %d" r.index
                       fid))
              probe)
          r.stamp_changes)
  in
  {
    r_index = r.index;
    r_kind = r.kind;
    r_switches = Plan.touched r;
    r_mods = Plan.round_mods r;
    r_wall_ms = wall_ms;
  },
  !applied,
  !failed

let crash t ~mid (r : Plan.round) =
  if mid then
    List.iter
      (fun (node, mods) -> Service.submit_all t.services.(node) mods)
      r.batches;
  Array.iter (fun s -> Service.simulate_crash ~mid_drain:mid s) t.services;
  close_log t;
  t.crashed <- true

(* ------------------------------------------------------------------ *)
(* Per-node supervision: the Fr_resil breaker/backoff machinery, one
   level up — the fleet is to its switches what a service is to its
   shards.  All decisions run on modelled time (drain hardware_ms plus
   the fault schedule's ack penalties), never the wall clock, so a
   supervised rollout is bit-deterministic and domain-count-invariant. *)

type node_sup = {
  breaker : Breaker.t;
  backoff : Backoff.t;
  mutable crash_pending : (int * bool) option;  (* round, mid_flush *)
  mutable slow_sched : (int * float * int) list;
  mutable stuck_sched : (int * int * int list) list;
  mutable active_slow : (float * int) option;  (* ack penalty, heals left *)
  mutable stuck_rows : (int * int list) list;  (* shard -> stuck addresses *)
  mutable down : bool;  (* control agent dead, awaiting re-adoption *)
}

type sup = {
  cfg : supervision;
  mutable hold_now : hold;  (* rollback forces Wait *)
  mutable budget_now : int;
  nodes : node_sup array;
  mutable s_retried : int;
  mutable s_quarantines : int;
  mutable s_recovered : int;
  mutable s_backoff_ms : float;
}

exception Abort_requested of int
exception Parked of int

let make_sup cfg (faults : Scenario.fault_schedule) services =
  let n = Array.length services in
  let rng = Rng.create ~seed:cfg.sup_seed in
  (* one split jitter stream per node, node order — independent of both
     the fault schedule and the domain count *)
  let nodes =
    Array.init n (fun _ ->
        {
          breaker =
            Breaker.create ~threshold:cfg.breaker_threshold
              ~slow_threshold:cfg.breaker_slow_threshold
              ~cooldown:cfg.breaker_cooldown ();
          backoff = Backoff.create ~rng:(Rng.split rng) ~seed:0 ();
          crash_pending = None;
          slow_sched = [];
          stuck_sched = [];
          active_slow = None;
          stuck_rows = [];
          down = false;
        })
  in
  List.iter
    (fun (node, fs) ->
      if node < 0 || node >= n then
        invalid_arg "Fleet: fault schedule names a node outside the topology";
      let ns = nodes.(node) in
      List.iter
        (function
          | Scenario.Crash_at { round; mid_flush } ->
              if ns.crash_pending <> None then
                invalid_arg
                  (Printf.sprintf "Fleet: node %d has two crash faults" node);
              ns.crash_pending <- Some (round, mid_flush)
          | Scenario.Slow_from { round; slow_ms; heal_after } ->
              ns.slow_sched <- ns.slow_sched @ [ (round, slow_ms, heal_after) ]
          | Scenario.Stuck_bank { round; shard; rows } ->
              (* a bank the switch does not have would never engage:
                 the run would certify nothing *)
              let svc = services.(node) in
              let shards = Service.shards svc in
              if shard >= shards then
                invalid_arg
                  (Printf.sprintf
                     "Fleet.execute: node %d stuck fault names shard %d, but \
                      the switch has %d shards"
                     node shard shards);
              let rows_per_shard =
                Agent.capacity (Shard.agent (Service.shard svc shard))
              in
              List.iter
                (fun row ->
                  if row >= rows_per_shard then
                    invalid_arg
                      (Printf.sprintf
                         "Fleet.execute: node %d stuck fault names row %d of \
                          shard %d, but a shard has %d rows"
                         node row shard rows_per_shard))
                rows;
              ns.stuck_sched <- ns.stuck_sched @ [ (round, shard, rows) ])
        fs)
    faults;
  {
    cfg;
    hold_now = cfg.hold;
    budget_now = cfg.hold_budget;
    nodes;
    s_retried = 0;
    s_quarantines = 0;
    s_recovered = 0;
    s_backoff_ms = 0.;
  }

let modelled_flush_ms (rep : Service.flush_report) =
  Array.fold_left
    (fun acc (d : Shard.drain_result) -> acc +. d.Shard.hardware_ms)
    0. rep.Service.results

(* (Re)build each shard's fault plan from the node's active slow / stuck
   state.  Also called after a node recovery: fault plans are volatile,
   the hardware's stuck rows are not. *)
let set_node_faults t sup node =
  let ns = sup.nodes.(node) in
  let svc = t.services.(node) in
  let slow = match ns.active_slow with Some (ms, _) -> ms | None -> 0. in
  for s = 0 to Service.shards svc - 1 do
    let stuck =
      match List.assoc_opt s ns.stuck_rows with Some r -> r | None -> []
    in
    let f =
      if stuck = [] && slow = 0. then None
      else
        Some
          (Fault.create ~stuck ~slow_ms:slow
             ~seed:(sup.cfg.sup_seed + (node * 97) + s)
             ())
    in
    Service.set_fault svc ~shard:s f
  done

let recover_node t sup ~applied node =
  let dir =
    match t.journal with
    | Some dir -> dir
    | None -> invalid_arg "Fleet: node crash faults need a journaled fleet"
  in
  match Service.recover ~domains:t.domains ~journal:(node_dir dir node) () with
  | Error e ->
      invalid_arg (Printf.sprintf "Fleet: node %d recovery failed: %s" node e)
  | Ok (r : Service.recovery) ->
      t.services.(node) <- r.service;
      sup.nodes.(node).down <- false;
      sup.s_recovered <- sup.s_recovered + 1;
      set_node_faults t sup node;
      (* crash-era requeued intent first, so the accounted-mod filter
         sees the true installed state before any resubmission *)
      if Service.pending r.service > 0 then begin
        let rep = Service.flush r.service in
        applied := !applied + Service.applied rep
      end

let heal_down t sup ~applied =
  Array.iteri
    (fun node ns -> if ns.down then recover_node t sup ~applied node)
    sup.nodes

(* Engage the faults whose round has come.  Boundary crashes fire here;
   a mid-flush crash on a switch the round does not touch degrades to a
   boundary crash (there is no flush to die inside). *)
let activate_faults t sup ~round ~touched =
  Array.iteri
    (fun node ns ->
      let changed = ref false in
      let due, later =
        List.partition (fun (rd, _, _) -> rd <= round) ns.slow_sched
      in
      ns.slow_sched <- later;
      (match (due, ns.active_slow) with
      | (_, ms, heal) :: _, None ->
          ns.active_slow <- Some (ms, heal);
          changed := true
      | _ -> ());
      let due, later =
        List.partition (fun (rd, _, _) -> rd <= round) ns.stuck_sched
      in
      ns.stuck_sched <- later;
      List.iter
        (fun (_, shard, rows) ->
          let have =
            match List.assoc_opt shard ns.stuck_rows with
            | Some r -> r
            | None -> []
          in
          let merged =
            List.sort_uniq compare (have @ rows)
          in
          ns.stuck_rows <- (shard, merged) :: List.remove_assoc shard ns.stuck_rows;
          changed := true)
        due;
      if !changed then set_node_faults t sup node;
      match ns.crash_pending with
      | Some (rd, mid) when rd <= round && ((not mid) || not (List.mem node touched))
        ->
          ns.crash_pending <- None;
          if not ns.down then begin
            Service.simulate_crash t.services.(node);
            ns.down <- true
          end
      | _ -> ())
    sup.nodes

(* One supervised application of a node's round batch: up to
   [1 + retries] attempts with jittered (modelled) backoff between them.
   An attempt fails on flush failures or on busting the per-node
   modelled deadline; a scheduled mid-flush crash consumes the attempt
   (submissions journaled, no commit) and the next attempt re-adopts the
   node from its journal.  Returns whether the batch landed and whether
   the last miss was a pure timeout. *)
let attempt_node ?probe t sup ~applied ~unresolved (r : Plan.round) node mods =
  let ns = sup.nodes.(node) in
  let attempts = 1 + max 0 sup.cfg.retries in
  let slow_only = ref false in
  let bill_retry attempt =
    sup.s_retried <- sup.s_retried + 1;
    sup.s_backoff_ms <- sup.s_backoff_ms +. Backoff.delay_ms ns.backoff ~attempt
  in
  let heal_tick () =
    match ns.active_slow with
    | Some (_, left) when left <= 1 ->
        ns.active_slow <- None;
        set_node_faults t sup node
    | Some (ms, left) -> ns.active_slow <- Some (ms, left - 1)
    | None -> ()
  in
  let rec go attempt =
    if ns.down then recover_node t sup ~applied node;
    match ns.crash_pending with
    | Some (rd, true) when rd <= r.index ->
        ns.crash_pending <- None;
        let todo = List.filter (fun m -> not (accounted t node m)) mods in
        Service.submit_all t.services.(node) todo;
        Service.simulate_crash ~mid_drain:true t.services.(node);
        ns.down <- true;
        slow_only := false;
        Option.iter
          (fun p ->
            p t ~round:r.index
              ~where:
                (Printf.sprintf "round %d node %d crashed mid-flush" r.index
                   node))
          probe;
        if attempt < attempts then begin
          bill_retry attempt;
          go (attempt + 1)
        end
        else false
    | _ ->
        let todo = List.filter (fun m -> not (accounted t node m)) mods in
        if todo <> [] then Service.submit_all t.services.(node) todo;
        let rep = Service.flush t.services.(node) in
        applied := !applied + Service.applied rep;
        let fails = List.length (Service.failures rep) in
        let ms =
          modelled_flush_ms rep
          +. (match ns.active_slow with Some (s, _) -> s | None -> 0.)
        in
        let timed_out = ms > sup.cfg.deadline_ms in
        if timed_out then heal_tick ();
        if fails = 0 && not timed_out then true
        else begin
          slow_only := fails = 0;
          Hashtbl.replace unresolved node fails;
          Option.iter
            (fun p ->
              p t ~round:r.index
                ~where:
                  (Printf.sprintf "round %d node %d attempt %d %s" r.index node
                     attempt
                     (if fails = 0 then "timed out" else "failed")))
            probe;
          if attempt < attempts then begin
            bill_retry attempt;
            go (attempt + 1)
          end
          else false
        end
  in
  let ok = go 1 in
  (ok, !slow_only)

(* The supervised round loop.  Nodes run sequentially in node order
   (supervision decisions are ordered; the per-node services still use
   their own domains), and a node that exhausts its attempts goes
   through its breaker: enough consecutive misses quarantine it, skipped
   passes cool it down, a half-open pass probes it.  When the round
   still cannot complete after [hold_budget] passes the hold policy
   decides: [Wait] parks the rollout at the round's begin marker
   (resumable), [Abort] raises for the compensating rollback. *)
let apply_round_supervised ?probe t sup ~applied ~failed (r : Plan.round) =
  let unresolved = Hashtbl.create 4 in
  let (), wall_ms =
    Measure.time_ms (fun () ->
        let touched = List.map fst r.batches in
        activate_faults t sup ~round:r.index ~touched;
        let pending =
          ref
            (List.filter_map
               (fun (node, mods) ->
                 match
                   List.filter (fun m -> not (accounted t node m)) mods
                 with
                 | [] -> None
                 | ms -> Some (node, ms))
               r.batches)
        in
        let passes = ref 0 in
        while !pending <> [] do
          let still = ref [] in
          List.iter
            (fun (node, mods) ->
              let ns = sup.nodes.(node) in
              if Breaker.admits ns.breaker then begin
                let opens0 = Breaker.opens ns.breaker in
                let ok, slow_only =
                  attempt_node ?probe t sup ~applied ~unresolved r node mods
                in
                if ok then begin
                  Breaker.note_success ns.breaker;
                  Hashtbl.remove unresolved node;
                  Option.iter
                    (fun p ->
                      p t ~round:r.index
                        ~where:
                          (Printf.sprintf "round %d after node %d" r.index
                             node))
                    probe
                end
                else begin
                  if slow_only then Breaker.note_slow ns.breaker
                  else Breaker.note_failure ns.breaker;
                  if Breaker.opens ns.breaker > opens0 then
                    sup.s_quarantines <- sup.s_quarantines + 1;
                  still := (node, mods) :: !still
                end
              end
              else begin
                Breaker.note_skipped ns.breaker;
                still := (node, mods) :: !still
              end)
            !pending;
          pending := List.rev !still;
          if !pending <> [] then begin
            incr passes;
            if !passes >= sup.budget_now then begin
              Hashtbl.iter (fun _ f -> failed := !failed + f) unresolved;
              match sup.hold_now with
              | Wait -> raise (Parked r.index)
              | Abort -> raise (Abort_requested r.index)
            end
          end
        done;
        List.iter
          (fun (fid, v) ->
            (match v with
            | Some v -> Hashtbl.replace t.stamps fid v
            | None -> Hashtbl.remove t.stamps fid);
            Option.iter
              (fun p ->
                p t ~round:r.index
                  ~where:
                    (Printf.sprintf "round %d after flip of flow %d" r.index
                       fid))
              probe)
          r.stamp_changes)
  in
  {
    r_index = r.index;
    r_kind = r.kind;
    r_switches = Plan.touched r;
    r_mods = Plan.round_mods r;
    r_wall_ms = wall_ms;
  }

let drive ?probe ?sup ~idempotent ?(markers = ("begin", "commit")) ~finalize t
    rounds =
  let mark_begin, mark_commit = markers in
  let per_round = ref [] in
  let applied = ref 0
  and failed = ref 0
  and rounds_run = ref 0 in
  let outcome = ref Completed in
  let (), wall_ms =
    Measure.time_ms (fun () ->
        (try
           List.iter
             (fun (r : Plan.round) ->
               if t.crashed then raise Exit;
               log_line t "%s %d" mark_begin r.index;
               let stat =
                 match sup with
                 | None ->
                     let stat, a, f = apply_round ?probe ~idempotent t r in
                     applied := !applied + a;
                     failed := !failed + f;
                     stat
                 | Some s ->
                     apply_round_supervised ?probe t s ~applied ~failed r
               in
               per_round := stat :: !per_round;
               log_line t "%s %d" mark_commit r.index;
               incr rounds_run;
               Option.iter
                 (fun p ->
                   p t ~round:r.index
                     ~where:(Printf.sprintf "round %d committed" r.index))
                 probe)
             rounds
         with
        | Exit -> outcome := Crashed
        | Parked k ->
            outcome := Held k;
            close_log t
        | Abort_requested k ->
            (* leave the log open: the rollback appends to it *)
            outcome := Aborted { at_round = k; rolled_back = 0 });
        if !outcome = Completed then
          match finalize with
          | Some token ->
              log_line t "%s" token;
              close_log t
          | None -> ())
  in
  {
    completed = !outcome = Completed;
    outcome = !outcome;
    rounds_run = !rounds_run;
    applied = !applied;
    failed = !failed;
    retried = 0;
    quarantines = 0;
    recovered = 0;
    backoff_ms = 0.;
    wall_ms;
    per_round = List.rev !per_round;
  }

let execute ?probe ?stop_after_rounds ?stop_in_rollback
    ?(crash_mode = Boundary) ?faults ?supervision ?abort_after_rounds t plan =
  ensure_alive t;
  if Topo.nodes (Plan.topo plan) <> Topo.nodes t.topo then
    invalid_arg "Fleet.execute: plan topology does not match the fleet";
  (match (stop_after_rounds, abort_after_rounds) with
  | Some _, Some _ ->
      invalid_arg
        "Fleet.execute: stop_after_rounds and abort_after_rounds are exclusive"
  | _ -> ());
  (match (stop_after_rounds, stop_in_rollback) with
  | (Some _ | None), Some _ when t.journal = None ->
      invalid_arg "Fleet.execute: crash drills need a journaled fleet"
  | Some _, _ when t.journal = None ->
      invalid_arg "Fleet.execute: crash drills need a journaled fleet"
  | _ -> ());
  let sup =
    match (faults, supervision) with
    | None, None -> None
    | fs, cfg ->
        let fs = Option.value fs ~default:[] in
        if t.journal = None && Scenario.has_crash fs then
          invalid_arg "Fleet.execute: crash faults need a journaled fleet";
        Some
          (make_sup
             (Option.value cfg ~default:default_supervision)
             fs t.services)
  in
  open_rollout t plan;
  let rounds = Plan.rounds plan in
  let finish rep =
    match sup with
    | None -> rep
    | Some s ->
        {
          rep with
          retried = s.s_retried;
          quarantines = s.s_quarantines;
          recovered = s.s_recovered;
          backoff_ms = s.s_backoff_ms;
        }
  in
  (* Compensating rollback: synthesize the inverse of the executed
     prefix and drive it idempotently (never-applied work is already
     accounted for and skips), under a Wait-mode supervisor so healing
     faults cannot wedge the compensation itself.  Journaled as
     abort_begin / rbegin / rcommit / abort_done — a controller crash
     anywhere inside recovers through {!recover}/{!resume}. *)
  let run_rollback forward ~at_round ~upto =
    let healed = ref 0 in
    Option.iter (fun s -> heal_down t s ~applied:healed) sup;
    log_line t "abort_begin %d" upto;
    Option.iter
      (fun s ->
        s.hold_now <- Wait;
        s.budget_now <- max s.cfg.hold_budget 64)
      sup;
    let inv = Plan.inverse ~upto plan in
    let inv_rounds = Plan.rounds inv in
    let merge rb ~outcome =
      finish
        {
          rb with
          completed = outcome = Completed;
          outcome;
          rounds_run = forward.rounds_run;
          applied = forward.applied + rb.applied + !healed;
          failed = forward.failed + rb.failed;
          per_round = forward.per_round @ rb.per_round;
        }
    in
    match stop_in_rollback with
    | Some j when j < List.length inv_rounds ->
        let before, rest =
          List.partition (fun (r : Plan.round) -> r.index < j) inv_rounds
        in
        let rb =
          drive ?probe ?sup ~idempotent:true ~markers:("rbegin", "rcommit")
            ~finalize:None t before
        in
        crash t ~mid:(crash_mode = Mid_submit) (List.hd rest);
        merge rb ~outcome:Crashed
    | _ ->
        let rb =
          drive ?probe ?sup ~idempotent:true ~markers:("rbegin", "rcommit")
            ~finalize:(Some "abort_done") t inv_rounds
        in
        merge rb
          ~outcome:(Aborted { at_round; rolled_back = rb.rounds_run })
  in
  match stop_after_rounds with
  | Some k ->
      let before, rest =
        List.partition (fun (r : Plan.round) -> r.index < k) rounds
      in
      let report =
        drive ?probe ?sup ~idempotent:false
          ~finalize:(if rest = [] then Some "done" else None)
          t before
      in
      if rest = [] then finish report
      else begin
        crash t ~mid:(crash_mode = Mid_submit) (List.hd rest);
        finish { report with completed = false; outcome = Crashed }
      end
  | None -> (
      match abort_after_rounds with
      | Some k when k < List.length rounds ->
          let before, _ =
            List.partition (fun (r : Plan.round) -> r.index < k) rounds
          in
          let rep =
            drive ?probe ?sup ~idempotent:false ~finalize:None t before
          in
          (match rep.outcome with
          | Completed -> run_rollback rep ~at_round:k ~upto:k
          | Aborted { at_round; _ } ->
              run_rollback rep ~at_round ~upto:(at_round + 1)
          | Crashed | Held _ -> finish rep)
      | _ -> (
          let rep =
            drive ?probe ?sup ~idempotent:false ~finalize:(Some "done") t
              rounds
          in
          match rep.outcome with
          | Aborted { at_round; _ } ->
              run_rollback rep ~at_round ~upto:(at_round + 1)
          | Completed | Held _ ->
              let healed = ref 0 in
              Option.iter (fun s -> heal_down t s ~applied:healed) sup;
              finish { rep with applied = rep.applied + !healed }
          | Crashed -> finish rep))

(* ------------------------------------------------------------------ *)
(* Recovery.                                                           *)

type recovery = {
  fleet : t;
  plan : Plan.t option;
  next_round : int;
  aborting : bool;
  replayed_drains : int;
  replayed_mods : int;
  requeued : int;
  warnings : string list;
}

let recover ?domains ~journal () =
  let ( let* ) = Result.bind in
  let* topo, kind, meta_stamps = read_meta journal in
  let domains_v =
    match domains with Some d -> d | None -> Service.default_domains ()
  in
  let n = Topo.nodes topo in
  let services = Array.make n None in
  let replayed_drains = ref 0
  and replayed_mods = ref 0
  and requeued = ref 0
  and warnings = ref [] in
  let rec recover_nodes i =
    if i >= n then Ok ()
    else
      match Service.recover ?domains ~journal:(node_dir journal i) () with
      | Error e -> Error (Printf.sprintf "node %d: %s" i e)
      | Ok (r : Service.recovery) ->
          services.(i) <- Some r.service;
          replayed_drains := !replayed_drains + r.replayed_drains;
          replayed_mods := !replayed_mods + r.replayed_mods;
          requeued := !requeued + r.requeued;
          warnings :=
            !warnings
            @ List.map (Printf.sprintf "node %d: %s" i) r.warnings;
          recover_nodes (i + 1)
  in
  let* () = recover_nodes 0 in
  let services = Array.map Option.get services in
  let* ro = read_rollout journal in
  let stamps = Hashtbl.create 16 in
  let load_stamps pairs =
    Hashtbl.reset stamps;
    List.iter (fun (fid, v) -> Hashtbl.replace stamps fid v) pairs
  in
  load_stamps meta_stamps;
  let replay_flips plan ~below =
    List.iter
      (fun (r : Plan.round) ->
        if r.index < below then
          List.iter
            (fun (fid, v) ->
              match v with
              | Some v -> Hashtbl.replace stamps fid v
              | None -> Hashtbl.remove stamps fid)
            r.stamp_changes)
      (Plan.rounds plan)
  in
  let next_of committed =
    match List.rev committed with [] -> 0 | k :: _ -> k + 1
  in
  let* plan, next_round, aborting =
    match ro with
    | None -> Ok (None, 0, false)
    | Some ro -> (
        load_stamps ro.ro_stamps;
        if ro.ro_aborted then
          (* rollback finished: the fleet is back on the pre-rollout
             policy, and the pre-rollout stamps are already loaded *)
          Ok (None, 0, false)
        else
          match
            Plan.make ~batch:ro.ro_batch topo ~stamps:ro.ro_stamps
              ~old_policy:ro.ro_old ~new_policy:ro.ro_new
          with
          | Error e -> Error ("cannot re-derive interrupted plan: " ^ e)
          | Ok plan ->
              if ro.ro_done then begin
                load_stamps (Plan.stamps_after plan);
                Ok (None, 0, false)
              end
              else begin
                (* Re-apply the flips of every committed forward round. *)
                replay_flips plan ~below:(next_of ro.ro_committed);
                match ro.ro_abort with
                | None -> Ok (Some plan, next_of ro.ro_committed, false)
                | Some upto ->
                    (* the controller died mid-rollback: resynthesize the
                       same inverse and pick up at the next inverse round *)
                    let inv = Plan.inverse ~upto plan in
                    let next_rb = next_of ro.ro_rb_committed in
                    replay_flips inv ~below:next_rb;
                    Ok (Some inv, next_rb, true)
              end)
  in
  let fleet =
    {
      topo;
      kind;
      domains = domains_v;
      services;
      stamps;
      journal = Some journal;
      log = None;
      crashed = false;
    }
  in
  Ok
    {
      fleet;
      plan;
      next_round;
      aborting;
      replayed_drains = !replayed_drains;
      replayed_mods = !replayed_mods;
      requeued = !requeued;
      warnings = !warnings;
    }

let resume ?probe (rc : recovery) =
  let t = rc.fleet in
  ensure_alive t;
  match rc.plan with
  | None ->
      {
        completed = true;
        outcome = Completed;
        rounds_run = 0;
        applied = 0;
        failed = 0;
        retried = 0;
        quarantines = 0;
        recovered = 0;
        backoff_ms = 0.;
        wall_ms = 0.;
        per_round = [];
      }
  | Some plan ->
      (match t.journal with
      | Some dir ->
          t.log <-
            Some
              (open_out_gen
                 [ Open_append; Open_creat; Open_wronly ]
                 0o644 (rollout_file dir))
      | None -> ());
      (* Apply the crash-era journals' requeued intent first, so the
         accounted-mod filter below sees the true installed state. *)
      let pre_applied = ref 0 and pre_failed = ref 0 in
      Array.iter
        (fun svc ->
          if Service.pending svc > 0 then begin
            let rep = Service.flush svc in
            pre_applied := !pre_applied + Service.applied rep;
            pre_failed := !pre_failed + List.length (Service.failures rep)
          end)
        t.services;
      let remaining =
        List.filter
          (fun (r : Plan.round) -> r.index >= rc.next_round)
          (Plan.rounds plan)
      in
      let markers, finalize =
        if rc.aborting then (("rbegin", "rcommit"), "abort_done")
        else (("begin", "commit"), "done")
      in
      let report =
        drive ?probe ~idempotent:true ~markers ~finalize:(Some finalize) t
          remaining
      in
      {
        report with
        applied = report.applied + !pre_applied;
        failed = report.failed + !pre_failed;
      }

let checkpoint t =
  ensure_alive t;
  Array.iter Service.checkpoint t.services

(* ------------------------------------------------------------------ *)
(* Offline journal-tree inspection (no recovery, nothing touched).     *)

type rollout_stat = {
  rs_nodes : int;
  rs_stamped : int;
  rs_state : string;
  rs_batch : int;
  rs_old_flows : int;
  rs_new_flows : int;
  rs_begun : int;
  rs_committed : int;
  rs_rb_begun : int;
  rs_rb_committed : int;
  rs_last_boundary : string;
}

let is_fleet_journal dir = Sys.file_exists (meta_file dir)

let rollout_stat ~journal () =
  let ( let* ) = Result.bind in
  let* topo, _kind, meta_stamps = read_meta journal in
  let* ro = read_rollout journal in
  let base =
    {
      rs_nodes = Topo.nodes topo;
      rs_stamped = List.length meta_stamps;
      rs_state = "idle";
      rs_batch = 0;
      rs_old_flows = 0;
      rs_new_flows = 0;
      rs_begun = 0;
      rs_committed = 0;
      rs_rb_begun = 0;
      rs_rb_committed = 0;
      rs_last_boundary = "pre-rollout baseline";
    }
  in
  match ro with
  | None -> Ok base
  | Some ro ->
      let last l = match List.rev l with [] -> None | k :: _ -> Some k in
      let state, boundary =
        if ro.ro_done then ("completed", "done (post-rollout policy)")
        else if ro.ro_aborted then
          ("rolled-back", "abort_done (pre-rollout policy)")
        else if ro.ro_abort <> None then
          ( "rolling-back",
            match last ro.ro_rb_committed with
            | Some k -> Printf.sprintf "rollback round %d committed" k
            | None -> "abort_begin (no rollback round committed)" )
        else
          ( "in-flight",
            match last ro.ro_committed with
            | Some k -> Printf.sprintf "round %d committed" k
            | None -> "pre-rollout baseline (no round committed)" )
      in
      Ok
        {
          base with
          rs_state = state;
          rs_batch = ro.ro_batch;
          rs_old_flows = List.length ro.ro_old;
          rs_new_flows = List.length ro.ro_new;
          rs_begun = List.length ro.ro_begun;
          rs_committed = List.length ro.ro_committed;
          rs_rb_begun = List.length ro.ro_rb_begun;
          rs_rb_committed = List.length ro.ro_rb_committed;
          rs_last_boundary = boundary;
        }

let pp_report ppf r =
  let label =
    match r.outcome with
    | Completed -> "rollout"
    | Crashed -> "CRASHED rollout"
    | Held k -> Printf.sprintf "HELD rollout (round %d)" k
    | Aborted { at_round; rolled_back } ->
        Printf.sprintf "ABORTED rollout (round %d, %d compensating rounds)"
          at_round rolled_back
  in
  Format.fprintf ppf "%s: %d rounds, %d applied, %d failed, %.1f ms" label
    r.rounds_run r.applied r.failed r.wall_ms;
  if r.retried + r.quarantines + r.recovered > 0 then
    Format.fprintf ppf
      "@.  supervision: %d retries (%.1f ms backoff), %d quarantines, %d \
       node recoveries"
      r.retried r.backoff_ms r.quarantines r.recovered;
  List.iter
    (fun s ->
      Format.fprintf ppf "@.  round %d [%s] %d switches %d mods %.2f ms"
        s.r_index
        (Plan.kind_to_string s.r_kind)
        s.r_switches s.r_mods s.r_wall_ms)
    r.per_round

let report_json r =
  let module J = Fr_ctrl.Telemetry.Json in
  [
    ("completed", J.Bool r.completed);
    ("outcome", J.Str (outcome_to_string r.outcome));
    ("applied", J.Int r.applied);
    ("failed", J.Int r.failed);
    ("retried", J.Int r.retried);
    ("quarantines", J.Int r.quarantines);
    ("recovered", J.Int r.recovered);
    ("backoff_ms", J.Float r.backoff_ms);
    ("wall_ms", J.Float r.wall_ms);
    ( "per_round",
      J.List
        (List.map
           (fun s ->
             J.Obj
               [
                 ("index", J.Int s.r_index);
                 ("kind", J.Str (Plan.kind_to_string s.r_kind));
                 ("switches", J.Int s.r_switches);
                 ("mods", J.Int s.r_mods);
                 ("wall_ms", J.Float s.r_wall_ms);
               ])
           r.per_round) );
  ]
