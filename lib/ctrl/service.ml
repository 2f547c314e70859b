module Rule = Fr_tern.Rule
module Agent = Fr_switch.Agent
module Firmware = Fr_switch.Firmware
module Measure = Fr_switch.Measure
module Journal = Fr_resil.Journal
module Backoff = Fr_resil.Backoff
module Breaker = Fr_resil.Breaker
module Pool = Fr_exec.Pool
module Rng = Fr_prng.Rng

(* -- supervision policy ---------------------------------------------- *)

type resil = {
  retry_budget : int;
  breaker_threshold : int;
  breaker_slow_threshold : int;
  slow_drain_ms : float;
  slow_factor : float;
  breaker_cooldown : int;
  queue_bound : int;
  failover : bool;
}

let default_resil =
  {
    retry_budget = 2;
    breaker_threshold = 3;
    breaker_slow_threshold = 3;
    slow_drain_ms = infinity;
    slow_factor = 0.0;
    breaker_cooldown = 2;
    queue_bound = 1024;
    failover = false;
  }

(* Fixed policy: a shard checkpoints every [checkpoint_every] commits
   (or after any dirty drain) and keeps [checkpoint_retain] checkpoint
   tables; the rebalance pass migrates at most [rebalance_batch] diverted
   ids home per flush.  Retry backoff is {!Backoff}'s fixed
   schedule. *)
let checkpoint_every = 32
let checkpoint_retain = 1
let rebalance_batch = 64

type t = {
  partition : Partition.t;
  domains : int;
      (* executors a flush may use; 1 = the exact legacy sequential path *)
  shards : Shard.t array;
  routes : (int, int) Hashtbl.t;
      (* rule id -> shard, for every id pending or installed.  [submit]
         and [rebalance] write it as they go; after each flush only the
         ids the flush's shards took in are reconciled against their
         shard ([reconcile_touched]), so a failed Add never leaves a stale
         route behind and a flush costs the size of its window, not of
         the table. *)
  resil : resil;
  journals : Journal.t array option;  (* one WAL per shard *)
  breakers : Breaker.t array;
  backoffs : Backoff.t array;
  shed : (Agent.flow_mod * string) list array;  (* newest first, per shard *)
  commits_since_ckpt : int array;
  overlay : Partition.Overlay.t;
      (* ids living away from their static home while it is quarantined *)
  epochs : (int, int) Hashtbl.t;
      (* id -> placement epoch, bumped each time the rebalance pass
         re-homes the id; threaded into Coalesce as the ordering fence *)
}

let default_kind = Firmware.FR_O Fr_sched.Store.Bit_backend

(* How many executors a flush uses when the caller does not say: the
   [FASTRULE_DOMAINS] env knob (so a whole test/CI run can be switched to
   the parallel path without touching call sites), else 1 — the library
   never grabs extra cores uninvited. *)
let default_domains () =
  match Sys.getenv_opt "FASTRULE_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)
  | None -> 1

let resolve_domains = function
  | None -> default_domains ()
  | Some n when n >= 1 -> n
  | Some n -> invalid_arg (Printf.sprintf "Service: domains %d < 1" n)

let make_supervision resil ~shards =
  let slow_policy =
    resil.slow_drain_ms < infinity || resil.slow_factor > 0.0
  in
  let breakers =
    Array.init shards (fun _ ->
        Breaker.create ~threshold:resil.breaker_threshold
          ~slow_threshold:(if slow_policy then resil.breaker_slow_threshold else 0)
          ~cooldown:resil.breaker_cooldown ())
  in
  (* Jitter streams: one root generator, split once per shard in shard
     order.  Each backoff owns an independent stream keyed only by its
     shard index, so a parallel flush draws exactly the jitter the
     sequential one would — and retries on shard [i] never perturb the
     schedule of shard [j], which a single shared generator would. *)
  let root = Rng.create ~seed:0x5e51 in
  let streams = Array.init shards (fun _ -> root) in
  for i = 0 to shards - 1 do
    streams.(i) <- Rng.split root
  done;
  let backoffs =
    Array.map
      (fun rng -> Backoff.create ~rng ~seed:0 ())
      streams
  in
  (breakers, backoffs)

let journal_unused ~dir =
  if Sys.file_exists (Journal.meta_file ~dir) then
    Error
      (Printf.sprintf
         "Service: journal directory %s already holds a journal (recover from \
          it instead)"
         dir)
  else Ok ()

(* A fresh journal directory: shape metadata once, then one compacted
   journal per shard anchored on a checkpoint of its starting table (so
   recovery always has a baseline).  Refuses a directory that already
   carries a journal — recover from it or point elsewhere. *)
let make_journals ~dir ~kind ~policy ~verify ~capacity
    (shards : Shard.t array) =
  Result.iter_error invalid_arg (journal_unused ~dir);
  Journal.write_meta ~dir
    {
      Journal.shards = Array.length shards;
      capacity;
      policy = Partition.policy_to_string policy;
      kind = Firmware.algo_kind_name kind;
      verify;
    };
  Array.map
    (fun shard ->
      let j = Journal.create ~dir ~shard:(Shard.id shard) in
      Journal.checkpoint j
        ~rules:(Array.of_list (Agent.rules (Shard.agent shard)));
      j)
    shards

let create ?(kind = default_kind) ?latency ?(verify = false)
    ?(policy = Partition.Hash_id) ?(resil = default_resil) ?journal ?domains
    ~shards ~capacity () =
  let shard_arr =
    Array.init shards (fun id ->
        Shard.create ~kind ?latency ~verify ~capacity ~id ())
  in
  let breakers, backoffs = make_supervision resil ~shards in
  {
    partition = Partition.create ~shards policy;
    domains = resolve_domains domains;
    shards = shard_arr;
    routes = Hashtbl.create 1024;
    resil;
    journals =
      Option.map
        (fun dir ->
          make_journals ~dir ~kind ~policy ~verify ~capacity shard_arr)
        journal;
    breakers;
    backoffs;
    shed = Array.make shards [];
    commits_since_ckpt = Array.make shards 0;
    overlay = Partition.Overlay.create ();
    epochs = Hashtbl.create 64;
  }

let of_rules ?(kind = default_kind) ?latency ?(verify = false)
    ?(policy = Partition.Hash_id) ?(resil = default_resil) ?journal ?domains
    ~shards ~capacity rules =
  let partition = Partition.create ~shards policy in
  let slices = Array.make shards [] in
  Array.iter
    (fun (r : Rule.t) ->
      let s = Partition.route_rule partition r in
      slices.(s) <- r :: slices.(s))
    rules;
  let shard_arr =
    Array.init shards (fun id ->
        Shard.of_rules ~kind ?latency ~verify ~capacity ~id
          (Array.of_list (List.rev slices.(id))))
  in
  let breakers, backoffs = make_supervision resil ~shards in
  let t =
    {
      partition;
      domains = resolve_domains domains;
      shards = shard_arr;
      routes = Hashtbl.create (2 * Array.length rules);
      resil;
      journals =
        Option.map
          (fun dir ->
            make_journals ~dir ~kind ~policy ~verify ~capacity shard_arr)
          journal;
      breakers;
      backoffs;
      shed = Array.make shards [];
      commits_since_ckpt = Array.make shards 0;
      overlay = Partition.Overlay.create ();
      epochs = Hashtbl.create 64;
    }
  in
  Array.iter
    (fun (r : Rule.t) ->
      Hashtbl.replace t.routes r.Rule.id (Partition.route_rule partition r))
    rules;
  t

let shards t = Array.length t.shards
let domains t = t.domains

let shard t i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg (Printf.sprintf "Service.shard: no shard %d" i);
  t.shards.(i)

let published t ~shard:i = Shard.published (shard t i)
let lookup_published t ~shard:i packet = Shard.lookup_published (shard t i) packet
let partition t = t.partition
let set_fault t ~shard:i f = Shard.set_fault (shard t i) f
let shard_of_rule t id = Hashtbl.find_opt t.routes id
let breaker_state t i = Breaker.state t.breakers.(i)
let journaled t = t.journals <> None

let rule_count t =
  Array.fold_left (fun acc s -> acc + Agent.rule_count (Shard.agent s)) 0 t.shards

let find_rule t id =
  match Hashtbl.find_opt t.routes id with
  | Some s -> Agent.rule (Shard.agent t.shards.(s)) id
  | None -> None

let diverted_count t = Partition.Overlay.count t.overlay
let epoch_of t id = Option.value (Hashtbl.find_opt t.epochs id) ~default:0

let dead_rows t =
  Array.fold_left (fun acc s -> acc + Shard.dead_rows s) 0 t.shards

(* Effective headroom of shard [i] under partial degradation: hardware
   slots its dead map has not condemned, minus rules installed and mods
   queued.  An approximation (queued Removes will free room), erring
   toward diverting early — a spurious divert is safe, a doomed Add is
   not. *)
let effective_room t i =
  let a = Shard.agent t.shards.(i) in
  Agent.capacity a - Shard.dead_rows t.shards.(i) - Agent.rule_count a
  - Shard.queue_depth t.shards.(i)

(* Degraded-full: silicon losses have shrunk the shard below its load.
   Only meaningful when rows are actually dead — a healthy full shard
   still takes the Add and rejects it itself (capacity errors are
   normal-plane noise, not divert-worthy). *)
let degraded_full t i =
  Shard.dead_rows t.shards.(i) > 0 && effective_room t i <= 0

let route t fm =
  match fm with
  | Agent.Add r -> (
      let id = r.Rule.id in
      match Hashtbl.find_opt t.routes id with
      | Some s -> s (* duplicate: let the owning shard reject it *)
      | None ->
          let home = Partition.route_rule t.partition r in
          let quarantined = not (Breaker.admits t.breakers.(home)) in
          let s =
            if t.resil.failover && (quarantined || degraded_full t home) then
              (* The static home is quarantined, or degraded silicon has
                 shrunk it below its load: divert this *new* id — only
                 the overflow, in the degraded case; the home keeps
                 serving what it already holds — to the rendezvous pick
                 among the shards that are admitted and have room.  Ids
                 that already live on the sick shard keep their sticky
                 route (the [Some s] branch above).  The pick is keyed by
                 the rule's routing window under the prefix policy so a
                 diverted destination block stays colocated. *)
              match
                Partition.rendezvous ~rule:r t.partition
                  ~healthy:(fun i ->
                    i <> home
                    && Breaker.admits t.breakers.(i)
                    && not (degraded_full t i))
                  id
              with
              | Some alt ->
                  Partition.Overlay.divert t.overlay ~id ~shard:alt;
                  Telemetry.record_diverted (Shard.telemetry t.shards.(alt));
                  if not quarantined then
                    Telemetry.record_degraded_divert
                      (Shard.telemetry t.shards.(alt));
                  alt
              | None -> home (* nobody has room; let it queue or shed *)
            else home
          in
          Hashtbl.replace t.routes id s;
          s)
  | Agent.Set_action { id; _ } | Agent.Remove { id } -> (
      match Hashtbl.find_opt t.routes id with
      | Some s -> s
      | None -> (
          match Partition.Overlay.find t.overlay id with
          | Some s -> s
          | None -> Partition.route_id t.partition id))

(* -- route upkeep ---------------------------------------------------- *)

(* [f s id] for every id shard [s] holds: each installed rule, and each
   still-queued op (a quarantined shard still holds intent, and follow-up
   ops for those ids must find the right queue). *)
let iter_held shards f =
  Array.iteri
    (fun s shard ->
      List.iter (fun (r : Rule.t) -> f s r.Rule.id) (Agent.rules (Shard.agent shard));
      List.iter (fun fm -> f s (Agent.mod_id fm)) (Shard.pending_mods shard))
    shards

(* The route table a full scan of [shards] builds.  O(table), so only
   recovery builds routes this way; [routes_consistent] checks the
   incremental upkeep against the same scan. *)
let rebuild_routes shards =
  let routes = Hashtbl.create 1024 in
  iter_held shards (fun s id -> Hashtbl.replace routes id s);
  routes

(* The route law for one id on shard [s]: while [s] holds it (installed
   or queued) the id routes to [s]; otherwise its route is dropped, but
   only when it points at [s] — a failed duplicate Add must leave the
   owner's route alone. *)
let reconcile t s id =
  let sh = t.shards.(s) in
  if Agent.rule (Shard.agent sh) id <> None || Shard.has_pending_id sh id then
    Hashtbl.replace t.routes id s
  else if Hashtbl.find_opt t.routes id = Some s then Hashtbl.remove t.routes id

(* An overlay binding that no longer matches its id's route is stale: the
   id was removed, drained back home (rebalance), or its diverted Add
   never materialised. *)
let settle_overlay t id =
  match Partition.Overlay.find t.overlay id with
  | Some s when Hashtbl.find_opt t.routes id <> Some s ->
      Partition.Overlay.settle t.overlay ~id
  | Some _ | None -> ()

(* Apply the route law to [(shard, ids)] pairs, then settle the overlay
   of every id once all routes stand. *)
let reconcile_ids t touched =
  List.iter (fun (s, ids) -> List.iter (reconcile t s) ids) touched;
  if Partition.Overlay.count t.overlay > 0 then
    List.iter (fun (_, ids) -> List.iter (settle_overlay t) ids) touched

(* After a flush: every id any shard took into its queue since the last
   flush (submits, retried requeues, rebalance moves) or still held
   queued at it, and nothing else.  Only those can have entered or left
   a shard, since an apply changes no id but its own. *)
let reconcile_touched t =
  reconcile_ids t
    (List.init (Array.length t.shards) (fun s ->
         (s, Shard.take_touched t.shards.(s))))

let routes_consistent t =
  (* The full scan, refusing an id that two shards hold. *)
  let want = Hashtbl.create 1024 and twice = ref None in
  iter_held t.shards (fun s id ->
      match Hashtbl.find_opt want id with
      | None -> Hashtbl.add want id s
      | Some s0 -> if s0 <> s && !twice = None then twice := Some (id, s0, s));
  let show = function Some s -> string_of_int s | None -> "none" in
  match !twice with
  | Some (id, a, b) -> Error (Printf.sprintf "rule %d is held by shards %d and %d" id a b)
  | None -> (
      match
        Seq.find
          (fun id -> Hashtbl.find_opt t.routes id <> Hashtbl.find_opt want id)
          (Seq.append (Hashtbl.to_seq_keys want) (Hashtbl.to_seq_keys t.routes))
      with
      | Some id ->
          Error
            (Printf.sprintf "route of rule %d is %s, a full rebuild says %s" id
               (show (Hashtbl.find_opt t.routes id))
               (show (Hashtbl.find_opt want id)))
      | None -> (
          match
            List.find_opt
              (fun (id, s) -> Hashtbl.find_opt want id <> Some s)
              (Partition.Overlay.bindings t.overlay)
          with
          | Some (id, s) ->
              Error
                (Printf.sprintf
                   "overlay binds rule %d to shard %d, but its route is %s" id s
                   (show (Hashtbl.find_opt want id)))
          | None -> Ok ()))

type submit_outcome = Accepted | Overloaded of string

let try_submit t fm =
  let id = Agent.mod_id fm in
  let had_route = Hashtbl.mem t.routes id in
  let s = route t fm in
  let sh = t.shards.(s) in
  if
    (not (Breaker.admits t.breakers.(s)))
    && Shard.queue_depth sh >= t.resil.queue_bound
  then begin
    (* Quarantined and the bounded queue is full: shed instead of letting
       a dead shard's backlog grow without limit. *)
    if not had_route then Hashtbl.remove t.routes id;
    let msg =
      Printf.sprintf "overloaded: shard %d quarantined (queue bound %d)" s
        t.resil.queue_bound
    in
    Telemetry.record_shed (Shard.telemetry sh);
    t.shed.(s) <- (fm, msg) :: t.shed.(s);
    Overloaded msg
  end
  else begin
    (* WAL before queue: intent is durable (fsync-batched — see
       {!Fr_resil.Journal}) before any drain can touch hardware. *)
    (match t.journals with
    | Some js -> ignore (Journal.log_mod js.(s) fm)
    | None -> ());
    let epoch = if t.resil.failover then Some (epoch_of t id) else None in
    (match Shard.submit ?epoch sh fm with
    | Coalesce.Annihilated ->
        (* A Remove cancelled its pending Add: the id left the shard
           without a drain, so its route goes now. *)
        reconcile_ids t [ (s, [ id ]) ]
    | Coalesce.Queued | Coalesce.Folded | Coalesce.Rejected _ -> ());
    Accepted
  end

let submit t fm = ignore (try_submit t fm)
let submit_all t mods = List.iter (submit t) mods

let pending t =
  Array.fold_left (fun acc s -> acc + Shard.queue_depth s) 0 t.shards

type flush_report = {
  results : Shard.drain_result array;
  quarantined : int list;
  wall_ms : float;
}

let applied r =
  Array.fold_left (fun acc (d : Shard.drain_result) -> acc + d.Shard.applied) 0
    r.results

let failures r =
  List.concat_map
    (fun (d : Shard.drain_result) -> d.Shard.failed)
    (Array.to_list r.results)

(* -- failure classification ------------------------------------------ *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A transient casualty is an injected hardware failure that left the op
   un-applied — worth retrying.  A Remove whose erase landed before the
   fault ("entry removed") already took effect; retrying it would only
   manufacture a spurious rejection. *)
let is_transient e = has_prefix ~prefix:"fault: " e && not (contains ~sub:"entry removed" e)

(* A drain whose final casualty list still contains fault (or shadow-table)
   damage cannot be reproduced by a fault-free replay; recovery must
   restart from a checkpoint instead. *)
let is_dirty_failure e = is_transient e || has_prefix ~prefix:"verify: " e

let merge_results keep_failed (a : Shard.drain_result)
    (b : Shard.drain_result) =
  {
    Shard.shard = a.Shard.shard;
    applied = a.Shard.applied + b.Shard.applied;
    failed = keep_failed @ b.Shard.failed;
    coalesced = a.Shard.coalesced + b.Shard.coalesced;
    firmware_ms = a.Shard.firmware_ms +. b.Shard.firmware_ms;
    hardware_ms = a.Shard.hardware_ms +. b.Shard.hardware_ms;
    tcam_ops = a.Shard.tcam_ops + b.Shard.tcam_ops;
    wall_ms = a.Shard.wall_ms +. b.Shard.wall_ms;
  }

let checkpoint_shard t i =
  match t.journals with
  | None -> ()
  | Some js ->
      Journal.checkpoint ~retain:checkpoint_retain js.(i)
        ~rules:(Array.of_list (Agent.rules (Shard.agent t.shards.(i))));
      Telemetry.record_checkpoint (Shard.telemetry t.shards.(i));
      t.commits_since_ckpt.(i) <- 0

let checkpoint t =
  Array.iteri (fun i _ -> checkpoint_shard t i) t.shards

(* Minimum per-op latency samples before the adaptive slow-call threshold
   engages; below this the shard's histogram is too thin to call anything
   an outlier, so the policy stays silent rather than tripping on
   warm-up noise. *)
let adaptive_min_samples = 8

(* The per-op bound this drain is judged against.  An explicit
   [slow_drain_ms] always wins; otherwise, with [slow_factor > 0], the
   bound is the shard's *own* p99 per-op hardware time scaled by the
   factor — derived from history only (the current drain is not yet in
   the series), so the judgment is identical whether shards drain
   sequentially or in parallel. *)
let effective_slow_ms t i =
  if t.resil.slow_drain_ms < infinity then t.resil.slow_drain_ms
  else if t.resil.slow_factor > 0.0 then begin
    let s = Telemetry.hw_per_op_ms (Shard.telemetry t.shards.(i)) in
    if s.Measure.count >= adaptive_min_samples then
      s.Measure.p99 *. t.resil.slow_factor
    else infinity
  end
  else infinity

(* Drain one admitted shard under the supervisor: retry transient
   casualties with backoff (modelled delay, accounted not slept), then
   settle the journal — a clean drain commits (a fault-free replay of its
   mods reproduces it exactly); a dirty one, or one past the checkpoint
   cadence, checkpoints instead so recovery never replays through
   non-deterministic fault damage. *)
let drain_supervised t i =
  let sh = t.shards.(i) in
  let tele = Shard.telemetry sh in
  let slow_ms = effective_slow_ms t i in
  Telemetry.set_slow_threshold tele slow_ms;
  let had_work = Shard.has_work sh in
  let drain_id =
    match t.journals with
    | Some js when had_work -> Some (Journal.log_begin js.(i))
    | _ -> None
  in
  let rec retry (r : Shard.drain_result) attempt =
    if attempt > t.resil.retry_budget then r
    else
      match List.partition (fun (_, e) -> is_transient e) r.Shard.failed with
      | [], _ -> r
      | transient, rest ->
          let delay = Backoff.delay_ms t.backoffs.(i) ~attempt in
          Telemetry.record_retry tele ~ops:(List.length transient)
            ~backoff_ms:delay;
          List.iter (fun (fm, _) -> ignore (Shard.requeue sh fm)) transient;
          retry (merge_results rest r (Shard.drain sh)) (attempt + 1)
  in
  let final = retry (Shard.drain sh) 1 in
  let br = t.breakers.(i) in
  if had_work then begin
    let was_open = Breaker.state br = Breaker.Open in
    (* Plain rejections (duplicates, not-installed, capacity) are
       normal-plane noise; only hardware/verify damage counts against the
       breaker. *)
    let damaged =
      List.exists
        (fun (_, e) ->
          has_prefix ~prefix:"fault: " e || has_prefix ~prefix:"verify: " e)
        final.Shard.failed
    in
    (* Slow-call policy: a damage-free drain whose modelled per-op
       hardware time breached [slow_drain_ms] counts against the
       breaker's slow streak — a switch that answers too slowly is
       quarantine-worthy even though nothing failed. *)
    let slow =
      (not damaged)
      && final.Shard.tcam_ops > 0
      && final.Shard.hardware_ms /. float_of_int final.Shard.tcam_ops
         > slow_ms
    in
    if damaged then Breaker.note_failure br
    else if slow then begin
      Telemetry.record_slow_drain tele;
      Breaker.note_slow br
    end
    else Breaker.note_success br;
    if Breaker.state br = Breaker.Open && not was_open then
      Telemetry.record_breaker_open tele
  end
  else if Breaker.state br = Breaker.Half_open then
    (* An empty probe window: the shard had nothing to drain, so there is
       no damage and no latency to judge.  Count it as a passed probe —
       otherwise a shard healed *after* the op stream ends stays
       half-open forever and the rebalance pass (which wants a fully
       closed home) can never drain its diverted ids back.  If the fault
       is in fact still there, the first real drain re-trips. *)
    Breaker.note_success br;
  Telemetry.set_breaker_state tele (Breaker.state_to_string (Breaker.state br));
  (match (t.journals, drain_id) with
  | Some js, Some drain ->
      (* Replay runs on a fresh agent that has lost the dead-row map, so
         a rejection that dead rows caused (no room, no feasible
         address) would replay as a success: such a drain checkpoints
         the table it really left, like a damaged one. *)
      let dirty =
        List.exists (fun (_, e) -> is_dirty_failure e) final.Shard.failed
        || (final.Shard.failed <> [] && Shard.dead_rows sh > 0)
      in
      t.commits_since_ckpt.(i) <- t.commits_since_ckpt.(i) + 1;
      if dirty || t.commits_since_ckpt.(i) >= checkpoint_every then
        checkpoint_shard t i
      else
        Journal.log_commit js.(i) ~drain ~applied:final.Shard.applied
          ~failed:(List.length final.Shard.failed)
  | _ -> ());
  final

let journal_mod t s fm =
  match t.journals with
  | Some js -> ignore (Journal.log_mod js.(s) fm)
  | None -> ()

let dedup_ints l = List.sort_uniq compare l

(* The background rebalance pass: once a diverted id's static home is
   healthy again ([Closed], not merely probing), migrate it back in
   bounded batches.  Ordering safety: an id is only touched when it has
   no pending ops on either shard, its placement epoch is bumped before
   the migration ops are queued (the Coalesce fence would reject any
   racing op from the old placement), and the Remove on the overlay
   shard drains *before* the Add on the home shard — the id is briefly
   absent from the union, never present twice. *)
let rebalance t =
  if (not t.resil.failover) || Partition.Overlay.count t.overlay = 0 then []
  else begin
    let take n l = List.filteri (fun i _ -> i < n) l in
    let candidates =
      Partition.Overlay.bindings t.overlay
      |> List.filter_map (fun (id, s) ->
             match Agent.rule (Shard.agent t.shards.(s)) id with
             | None -> None (* not installed there (yet); nothing to move *)
             | Some r ->
                 let home = Partition.route_rule t.partition r in
                 if
                   home <> s
                   && Breaker.state t.breakers.(home) = Breaker.Closed
                   && effective_room t home > 0
                      (* a degraded home gets its ids back only once the
                         probe drill (or defrag churn) has restored room *)
                   && Breaker.admits t.breakers.(s)
                   && (not (Shard.has_pending_id t.shards.(s) id))
                   && not (Shard.has_pending_id t.shards.(home) id)
                 then Some (id, s, home, r)
                 else None)
      |> take rebalance_batch
    in
    if candidates = [] then []
    else begin
      (* Phase 1: erase each migrating id from its overlay shard. *)
      List.iter
        (fun (id, s, _home, _r) ->
          let e = epoch_of t id + 1 in
          Hashtbl.replace t.epochs id e;
          journal_mod t s (Agent.Remove { id });
          ignore (Shard.requeue ~epoch:e t.shards.(s) (Agent.Remove { id })))
        candidates;
      let rm_results =
        List.map
          (fun s -> drain_supervised t s)
          (dedup_ints (List.map (fun (_, s, _, _) -> s) candidates))
      in
      (* Phase 2: re-insert at home every id whose erase landed. *)
      let moved =
        List.filter
          (fun (id, s, _home, _r) ->
            Agent.rule (Shard.agent t.shards.(s)) id = None)
          candidates
      in
      List.iter
        (fun (id, _s, home, r) ->
          journal_mod t home (Agent.Add r);
          ignore (Shard.requeue ~epoch:(epoch_of t id) t.shards.(home) (Agent.Add r)))
        moved;
      let add_results =
        List.map
          (fun h -> drain_supervised t h)
          (dedup_ints (List.map (fun (_, _, h, _) -> h) moved))
      in
      (* Phase 3: settle what landed; re-shelter what did not. *)
      let repair_results = ref [] in
      List.iter
        (fun (id, s, home, r) ->
          if Agent.rule (Shard.agent t.shards.(home)) id <> None then begin
            Partition.Overlay.settle t.overlay ~id;
            Hashtbl.replace t.routes id home;
            Telemetry.record_rebalanced (Shard.telemetry t.shards.(home))
          end
          else begin
            (* The home insert failed (capacity, fresh damage): put the
               rule back where it was and keep the overlay binding. *)
            let e = epoch_of t id + 1 in
            Hashtbl.replace t.epochs id e;
            journal_mod t s (Agent.Add r);
            ignore (Shard.requeue ~epoch:e t.shards.(s) (Agent.Add r));
            repair_results := drain_supervised t s :: !repair_results
          end)
        moved;
      rm_results @ add_results @ List.rev !repair_results
    end
  end

(* One shard's share of a flush: skip-or-drain under its breaker, with
   any shed submits folded into the casualty list.  Everything here —
   agent, coalesce queue, telemetry, breaker, backoff stream, journal
   file, [shed] and [commits_since_ckpt] slot — is owned by shard [i]
   alone, which is what makes the domain fan-out below race-free without
   a single lock in the drain path.  Returns [(skipped, result)]. *)
let flush_shard t i =
  let sheds = List.rev t.shed.(i) in
  t.shed.(i) <- [];
  let br = t.breakers.(i) in
  if not (Breaker.admits br) then begin
    Breaker.note_skipped br;
    Telemetry.set_breaker_state
      (Shard.telemetry t.shards.(i))
      (Breaker.state_to_string (Breaker.state br));
    (true, { (Shard.empty_result ~shard:i) with Shard.failed = sheds })
  end
  else
    let r = drain_supervised t i in
    (false, { r with Shard.failed = sheds @ r.Shard.failed })

(* Fan the per-shard drains out to the shared domain pool and join
   deterministically.  [domains = 1] (or a single shard) bypasses the
   pool entirely — the exact legacy sequential path.  The pool gets
   [domains - 1] workers because the joining caller lends itself to the
   pool while it waits, so [domains] executors run in total.  A task
   exception is re-raised only after every sibling has finished (lowest
   shard first), so no drain is ever abandoned mid-journal-write and the
   raise order does not depend on scheduling. *)
let drain_all t =
  let n = Array.length t.shards in
  let out = Array.make n (true, Shard.empty_result ~shard:0) in
  if t.domains <= 1 || n <= 1 then
    for i = 0 to n - 1 do
      out.(i) <- flush_shard t i
    done
  else begin
    let pool = Pool.shared ~workers:(min (t.domains - 1) n) in
    let joined =
      Pool.run_all pool (Array.init n (fun i -> fun () -> flush_shard t i))
    in
    Array.iteri
      (fun i -> function Ok r -> out.(i) <- r | Error _ -> ())
      joined;
    Array.iter (function Error e -> raise e | Ok _ -> ()) joined
  end;
  out

let flush t =
  let (results, quarantined), wall_ms =
    Measure.time_ms (fun () ->
        let per_shard = drain_all t in
        let results = Array.map snd per_shard in
        let quarantined = ref [] in
        Array.iteri
          (fun i (skipped, _) ->
            if skipped then quarantined := i :: !quarantined)
          per_shard;
        (* The rebalance pass crosses shards (it reads sibling breakers
           and moves ids between queues), so it runs as an ordered
           epilogue after the join barrier, never concurrently with the
           drains.  Its extra drains are merged into the per-shard slots
           so the report stays a truthful account of the whole flush. *)
        List.iter
          (fun (r : Shard.drain_result) ->
            let i = r.Shard.shard in
            results.(i) <- merge_results results.(i).Shard.failed results.(i) r)
          (rebalance t);
        (* Probe drill + dead-row gauges: every shard still carrying dead
           rows re-tests them (rows found healed re-enter the writable
           pool, so the next rebalance can drain diverted ids home).
           Ordered epilogue, after the join barrier — deterministic and
           identical for any domain count. *)
        Array.iter
          (fun sh ->
            if Shard.dead_rows sh > 0 then begin
              let probed, recovered = Shard.probe_dead sh in
              Telemetry.record_heal_probe (Shard.telemetry sh) ~probed
                ~recovered
            end;
            Telemetry.set_dead_rows (Shard.telemetry sh) (Shard.dead_rows sh))
          t.shards;
        reconcile_touched t;
        (results, List.rev !quarantined))
  in
  { results; quarantined; wall_ms }

(* -- crash simulation ------------------------------------------------ *)

let simulate_crash ?(mid_drain = false) t =
  match t.journals with
  | None -> invalid_arg "Service.simulate_crash: service has no journal"
  | Some js ->
      Array.iteri
        (fun i sh ->
          if mid_drain && Shard.has_work sh then ignore (Journal.log_begin js.(i)))
        t.shards;
      (* Closing flushes the buffered tail; the process is now free to
         disappear.  The service must not be used afterwards. *)
      Array.iter Journal.close js

(* -- whole-shard restart fault ---------------------------------------- *)

type readoption = {
  restart_replayed_drains : int;
  restart_replayed_mods : int;
  restart_requeued : int;
}

(* One shard's agent process dies and restarts mid-run: volatile state
   (installed table view, queue) is lost, the journal survives, and the
   service re-adopts the shard from it without disturbing its siblings —
   checkpoint, deterministic replay of committed drains, uncommitted
   suffix requeued.  The replay goes through the raw [Shard.drain] (no
   begin/commit markers: those drains are already journaled) and the
   writer keeps appending afterwards with its own counters.  Only safe
   between flushes, which is when the chaos layer fires it. *)
let restart_shard t ~shard:i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg (Printf.sprintf "Service.restart_shard: no shard %d" i);
  match t.journals with
  | None -> Error "restart_shard: service has no journal"
  | Some js ->
      let ( let* ) = Result.bind in
      let j = js.(i) in
      (* The reader must see every buffered mod the writer accepted. *)
      Journal.sync j;
      let sh = t.shards.(i) in
      let dir = Journal.dir j in
      let* r = Journal.read_recovery ~dir ~shard:i in
      let* rules =
        match r.Journal.checkpoint with
        | None -> Ok [||]
        | Some (_, file) -> Fr_workload.Rules_io.load file
      in
      Telemetry.record_restart (Shard.telemetry sh);
      Shard.reset sh rules;
      let replayed_drains = ref 0 and replayed_mods = ref 0 in
      let requeued = ref 0 in
      let mods = ref r.Journal.mods in
      List.iter
        (fun (c : Journal.committed) ->
          let batch, rest =
            List.partition (fun (seq, _) -> seq <= c.Journal.upto) !mods
          in
          mods := rest;
          List.iter (fun (_, fm) -> ignore (Shard.requeue sh fm)) batch;
          ignore (Shard.drain sh);
          incr replayed_drains;
          replayed_mods := !replayed_mods + List.length batch)
        r.Journal.committed;
      List.iter
        (fun (_, fm) ->
          ignore (Shard.requeue sh fm);
          incr requeued)
        !mods;
      (* The reset dropped whatever the shard held; the ids routed here
         before it and the ids it holds now are the only routes it can
         have changed. *)
      let held =
        List.map (fun (r : Rule.t) -> r.Rule.id) (Agent.rules (Shard.agent sh))
        @ List.map Agent.mod_id (Shard.pending_mods sh)
      in
      reconcile_ids t
        [
          ( i,
            Hashtbl.fold
              (fun id s acc -> if s = i then id :: acc else acc)
              t.routes held );
        ];
      (match Agent.verify_consistent (Shard.agent sh) with
      | Ok () ->
          Ok
            {
              restart_replayed_drains = !replayed_drains;
              restart_replayed_mods = !replayed_mods;
              restart_requeued = !requeued;
            }
      | Error e ->
          Error (Printf.sprintf "restart_shard: shard %d inconsistent: %s" i e))

(* -- recovery -------------------------------------------------------- *)

type recovery = {
  service : t;
  replayed_drains : int;
  replayed_mods : int;
  requeued : int;
  interrupted : int;
  warnings : string list;
}

let recover ?latency ?(resil = default_resil) ?domains ~journal:dir () =
  let ( let* ) = Result.bind in
  let* meta = Journal.read_meta ~dir in
  let* () = Journal.check_shards ~dir meta in
  let* kind =
    match Firmware.algo_kind_of_string meta.Journal.kind with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "recover: unknown kind %S" meta.Journal.kind)
  in
  let* policy =
    match Partition.policy_of_string meta.Journal.policy with
    | Some p -> Ok p
    | None ->
        Error (Printf.sprintf "recover: unknown policy %S" meta.Journal.policy)
  in
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt in
  let replayed_drains = ref 0 in
  let replayed_mods = ref 0 in
  let requeued = ref 0 in
  let interrupted = ref 0 in
  let rebuild_shard i =
    let* r = Journal.read_recovery ~dir ~shard:i in
    let* rules =
      match r.Journal.checkpoint with
      | None -> Ok [||]
      | Some (_, file) -> Fr_workload.Rules_io.load file
    in
    let* sh =
      match
        Shard.of_rules ~kind ?latency ~verify:meta.Journal.verify
          ~capacity:meta.Journal.capacity ~id:i rules
      with
      | sh -> Ok sh
      | exception Invalid_argument msg ->
          Error (Printf.sprintf "recover: shard %d checkpoint: %s" i msg)
    in
    (* Committed drains replay deterministically: the journal never
       commits through fault damage (dirty drains checkpoint instead), so
       re-driving each drain's mods through a fresh queue reproduces the
       recorded outcome. *)
    let mods = ref r.Journal.mods in
    List.iter
      (fun (c : Journal.committed) ->
        let batch, rest =
          List.partition (fun (seq, _) -> seq <= c.Journal.upto) !mods
        in
        mods := rest;
        List.iter (fun (_, fm) -> ignore (Shard.requeue sh fm)) batch;
        let dr = Shard.drain sh in
        incr replayed_drains;
        replayed_mods := !replayed_mods + List.length batch;
        if
          dr.Shard.applied <> c.Journal.applied
          || List.length dr.Shard.failed <> c.Journal.failed
        then
          warn "shard %d: drain %d replayed as %d applied / %d failed (journal says %d / %d)"
            i c.Journal.drain dr.Shard.applied
            (List.length dr.Shard.failed)
            c.Journal.applied c.Journal.failed)
      r.Journal.committed;
    (* The uncommitted suffix is intent, not state: re-enqueue it so the
       next flush drives it, leaving the installed table equal to the
       committed prefix. *)
    List.iter
      (fun (_, fm) ->
        ignore (Shard.requeue sh fm);
        incr requeued)
      !mods;
    if r.Journal.interrupted then incr interrupted;
    (match Agent.verify_consistent (Shard.agent sh) with
    | Ok () -> ()
    | Error e -> warn "shard %d: inconsistent after recovery: %s" i e);
    Ok
      ( sh,
        Journal.reopen ~dir ~shard:i ~next_seq:r.Journal.next_seq
          ~next_drain:r.Journal.next_drain )
  in
  let rec go i acc =
    if i >= meta.Journal.shards then Ok (List.rev acc)
    else
      let* pair = rebuild_shard i in
      go (i + 1) (pair :: acc)
  in
  let* pairs = go 0 [] in
  let shard_arr = Array.of_list (List.map fst pairs) in
  let journals = Array.of_list (List.map snd pairs) in
  let breakers, backoffs =
    make_supervision resil ~shards:meta.Journal.shards
  in
  let t =
    {
      partition = Partition.create ~shards:meta.Journal.shards policy;
      domains = resolve_domains domains;
      shards = shard_arr;
      routes = rebuild_routes shard_arr;
      resil;
      journals = Some journals;
      breakers;
      backoffs;
      shed = Array.make meta.Journal.shards [];
      commits_since_ckpt = Array.make meta.Journal.shards 0;
      overlay = Partition.Overlay.create ();
      epochs = Hashtbl.create 64;
    }
  in
  Ok
    {
      service = t;
      replayed_drains = !replayed_drains;
      replayed_mods = !replayed_mods;
      requeued = !requeued;
      interrupted = !interrupted;
      warnings = List.rev !warnings;
    }

(* -- dumps ----------------------------------------------------------- *)

let pp_stats ppf t =
  Array.iter
    (fun s ->
      Format.fprintf ppf "-- shard %d (%d rules, %d/%d slots) --@.%a"
        (Shard.id s)
        (Agent.rule_count (Shard.agent s))
        (Fr_tcam.Tcam.used_count (Agent.tcam (Shard.agent s)))
        (Agent.capacity (Shard.agent s))
        Telemetry.pp (Shard.telemetry s))
    t.shards

let to_json ?scenario ?seed t =
  let open Telemetry.Json in
  let per_shard =
    Array.to_list
      (Array.map
         (fun s ->
           match Telemetry.to_json (Shard.telemetry s) with
           | Obj fields ->
               Obj
                 (("shard", Int (Shard.id s))
                 :: ("rules", Int (Agent.rule_count (Shard.agent s)))
                 :: fields)
           | v -> v)
         t.shards)
  in
  let header =
    (match scenario with Some s -> [ ("scenario", Str s) ] | None -> [])
    @ match seed with Some s -> [ ("seed", Int s) ] | None -> []
  in
  Obj
    (header
    @ [
        ("shards", Int (Array.length t.shards));
        ("domains", Int t.domains);
        ("policy", Str (Partition.policy_to_string (Partition.policy t.partition)));
        ("journaled", Bool (t.journals <> None));
        ("rules", Int (rule_count t));
        ("per_shard", List per_shard);
      ])
