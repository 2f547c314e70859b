(** The switch agent: a self-contained flow-table manager.

    This is the API a downstream user actually programs against — the
    OpenFlow-facing layer the paper's firmware sits beneath.  It owns the
    rule store, the dependency graph, the TCAM and a scheduler, and turns
    flow-mod messages into hardware update sequences:

    - [Add rule]: compile the rule's minimal dependencies against the live
      table (the policy-compiler stage), then schedule and apply the
      insertion;
    - [Set_action]: rewrite the entry in place — one hardware write, zero
      movements.  This is sound because the dependency graph orders
      {e every} overlapping pair regardless of actions, so an action
      change can never require reordering.  If the entry sits on a row
      the dead map has condemned (in-place rewrite would fail forever),
      the agent relocates it through the scheduler's own Remove + Add
      path instead, keeping every scheduler invariant.  The Remove only
      runs when a writable free row exists, and a re-Add that hits
      another stuck row is retried around it instead of dropping the
      rule;
    - [Remove id]: schedule the deletion and remove the node {e with
      contraction}, preserving the transitive shadowing order that flowed
      through the removed rule (two rules that both overlapped it may
      overlap each other; the reduced graph may have relied on the removed
      node to order them).

    The agent optionally verifies every sequence against the shadow table
    ({!Fr_sched.Check}) before touching the TCAM, and meters the paper's
    two clocks. *)

type flow_mod =
  | Add of Fr_tern.Rule.t
  | Set_action of { id : int; action : Fr_tern.Rule.action }
  | Remove of { id : int }

val pp_flow_mod : Format.formatter -> flow_mod -> unit

val mod_id : flow_mod -> int
(** The rule id a flow-mod acts on.  {!apply} changes the stored entry
    of this id and of no other — a dead-row relocation removes and
    re-adds the same id — so the id alone says which rule an applied
    flow-mod may have moved in or out of the table. *)

type t

val create :
  ?kind:Firmware.algo_kind ->
  ?scheduler:(graph:Fr_dag.Graph.t -> tcam:Fr_tcam.Tcam.t -> Fr_sched.Algo.t) ->
  ?latency:Fr_tcam.Latency.t ->
  ?verify:bool ->
  capacity:int ->
  unit ->
  t
(** An empty table.  Defaults: FastRule on the original layout with the
    BIT back-end, 0.6 ms/op latency model, [verify = false].
    [scheduler] overrides the {!Firmware.make_scheduler} factory for
    [kind] while keeping [kind]'s layout — the conformance harness uses it
    to interpose recorders and saboteurs ({!Fr_sched.Sabotage}) around the
    real scheduler. *)

val of_rules :
  ?kind:Firmware.algo_kind ->
  ?scheduler:(graph:Fr_dag.Graph.t -> tcam:Fr_tcam.Tcam.t -> Fr_sched.Algo.t) ->
  ?latency:Fr_tcam.Latency.t ->
  ?verify:bool ->
  ?deadmap:Fr_tcam.Deadmap.t ->
  capacity:int ->
  Fr_tern.Rule.t array ->
  t
(** Bulk-load an initial policy (compiled in one pass, placed according to
    the scheduler's layout).  [deadmap] is adopted by the fresh TCAM and
    placement packs around its dead rows — the restart path for a switch
    whose hardware already has known-bad banks ({!Fr_ctrl.Shard.reset}
    carries the map across rebuilds so rediscovery is not needed).
    @raise Invalid_argument if the rules do not fit (on the writable rows)
    or ids collide. *)

val apply : t -> flow_mod -> (unit, string) result
(** Process one flow-mod end to end.  On [Error] the table is unchanged —
    with two deliberate exceptions under an installed fault plan (see
    {!set_fault}): a fault that interrupts a sequence mid-way leaves the
    already-applied prefix in place (safe: a verified sequence keeps the
    dependency invariant after {e every} op), and a [Remove] whose erase
    landed before the fault completes its logical removal so the store
    and the TCAM keep agreeing.  Error messages are classifiable by
    prefix: ["verify: ..."] is a shadow-table rejection of the emitted
    sequence (the scheduler is wrong), ["fault: ..."] an injected
    hardware failure; anything else is a scheduling/request rejection. *)

val set_fault : t -> Fr_tcam.Fault.t option -> unit
(** Install (or clear) a fault plan consulted before every hardware op.
    Intended for the conformance harness on the (default) FastRule
    schedulers, whose [after_apply] bookkeeping recomputes from TCAM
    truth and therefore survives partially-applied sequences; the
    stateful baselines (Naive's pending renumber) are not fault-safe. *)

val fault : t -> Fr_tcam.Fault.t option

val dead_rows : t -> int
(** Rows the TCAM's {!Fr_tcam.Deadmap} currently marks dead.  Rows are
    condemned by failed writes (see {!apply}: a ["fault: ..."] error on an
    insert op also strikes its target address) and revived by successful
    writes or {!probe_dead}. *)

val probe_dead : t -> int * int
(** Re-test every dead row against the installed fault plan (a probe is a
    scratch write-and-erase on a row holding no entry, so it is safe on
    live hardware).  Rows that no longer reject writes are revived in the
    dead map, and the scheduler settles them again
    ({!Fr_sched.Algo.t}[.rows_revived]) so its metric stores stop
    treating them as dead; with no fault plan installed every dead mark
    is spurious and is cleared.  Returns [(probed, recovered)]. *)

val lookup : t -> Fr_tern.Header.packet -> Fr_tern.Rule.t option
(** What the hardware answers: highest-address match.  Increments the
    matched rule's packet counter (OpenFlow flow stats). *)

val published : t -> Fr_tcam.Image.t
(** The wait-free read face: the latest snapshot image, republished by
    every committed hardware op, exactly one image per op (a write
    carries its rule from the agent's store).  One atomic load;
    the returned image is immutable and stays valid however long the
    caller holds it.  Safe to call from any domain while this agent's
    domain is mid-flush. *)

val lookup_published : t -> Fr_tern.Header.packet -> Fr_tern.Rule.t option
(** [Image.lookup (published t)] — the lookup a reader domain performs
    during an update storm.  Wait-free and unsynchronised, so it does
    {e no} hit accounting; readers keep local tallies and merge them with
    {!account_hits} after joining. *)

val account_hits : t -> misses:int -> (int * int) list -> unit
(** Merge reader-side tallies [(rule id, packets)] plus a miss count into
    the agent's flow-stats counters (call on the agent's own domain, after
    the readers joined).  Packets for rules still installed land on their
    counters exactly as live {!lookup}s would; packets whose winning rule
    has since been removed are kept in {!retired_hits} — served from a
    snapshot is still served.  @raise Invalid_argument on negative
    counts. *)

val retired_hits : t -> int
(** Snapshot-served packets whose winning rule was removed before the
    tallies merged ({!account_hits}); they still count in
    {!total_packets}. *)

val set_publish_observer : t -> (Fr_tcam.Image.t -> unit) option -> unit
(** Observe every publication (after the published pointer moves).  The
    conformance oracle uses this to capture each mid-cascade instant;
    leave it [None] on hot paths. *)

val packet_count : t -> int -> int
(** Packets accounted to a rule by {!lookup} since installation (0 for
    unknown rules; counters vanish with the rule on [Remove] and survive
    [Set_action]). *)

val total_packets : t -> int
(** All packets looked up, including misses. *)

val miss_count : t -> int
(** Lookups that matched nothing (would punt to the controller). *)

val semantic_lookup : t -> Fr_tern.Header.packet -> Fr_tern.Rule.t option
(** The specification: highest-priority match over the rule store (ties to
    the lower id), evaluated linearly.  {!lookup} must always agree — the
    test suite drives random packets through both. *)

val rule : t -> int -> Fr_tern.Rule.t option
val rule_count : t -> int
val capacity : t -> int
val rules : t -> Fr_tern.Rule.t list

val graph : t -> Fr_dag.Graph.t
val tcam : t -> Fr_tcam.Tcam.t

val firmware_ms_total : t -> float
val tcam_ms_total : t -> float
val mods_applied : t -> int

val verify_ms_total : t -> float
(** Wall-clock spent in {!Fr_sched.Check.sequence} (0 unless
    [verify = true]) — the price of the safety net, reported separately
    from firmware time so the conformance report can quote verification
    overhead honestly. *)

val verified_ops : t -> int
(** Ops run through the shadow-table check so far. *)

val snapshot : t -> string
(** The installed policy in the {!Fr_workload.Rules_io} text format
    (priority order is part of each rule; the TCAM image itself is
    re-derivable). *)

val save : t -> string -> unit
(** [save t path] — {!snapshot} to a file. *)

val verify_consistent : t -> (unit, string) result
(** Cross-check the views of the table: every stored rule has a TCAM
    entry, the TCAM holds nothing else, the entries respect the
    dependency-graph order ({!Fr_tcam.Tcam.check_dag_order}), and the
    published image agrees with the TCAM's id -> address index and
    carries each entry's stored rule ({!Fr_tcam.Tcam.image_consistent}).
    The recovery path ([Fr_resil] / [Fr_ctrl.Service.recover]) runs this
    on every rebuilt shard before putting it back in service. *)

val restore :
  ?kind:Firmware.algo_kind ->
  ?latency:Fr_tcam.Latency.t ->
  ?verify:bool ->
  capacity:int ->
  string ->
  (t, string) result
(** Load a table saved by {!save} into a fresh agent. *)
