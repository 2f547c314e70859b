(** The switch firmware pipeline (§III): compiler -> TCAM update scheduler
    -> TCAM, with the paper's two-clock accounting.

    A {!run} owns one live table: the dependency graph, the TCAM image, a
    scheduler, and two meters —

    - {e firmware time}: wall-clock spent computing update sequences
      (scheduling plus the scheduler's own bookkeeping), per update;
    - {e TCAM update time}: the modelled hardware cost of applying the
      sequences ([#ops x per-op latency], 0.6 ms each by default).

    [exec] drives one update through the full pipeline.  An optional
    paranoid mode re-checks the dependency invariant after every update
    (used by tests and examples; disabled in benchmarks). *)

type algo_kind =
  | Naive
  | Ruletris
  | FR_O of Fr_sched.Store.backend  (** FastRule, original layout *)
  | FR_SD of Fr_sched.Store.backend  (** separated layout, dirty delete *)
  | FR_SB of Fr_sched.Store.backend  (** separated layout, balance delete *)

val algo_kind_name : algo_kind -> string
(** Short display name ("naive", "ruletris", "fr-o", "fr-sd", "fr-sb"). *)

val algo_kind_of_string : string -> algo_kind option
(** Inverse of {!algo_kind_name}, accepting the CLI's backend-qualified
    spellings ("fr-o/array", "fr-o/od"); bare FastRule names resolve to
    the BIT back-end.  Used wherever a kind crosses a serialisation
    boundary (CLI flags, journal metadata). *)

val layout_of : algo_kind -> Fr_tcam.Layout.t

val standard_algos : Fr_sched.Store.backend -> algo_kind list
(** The paper's five: Naive, RuleTris, FR-O, FR-SD, FR-SB (FastRule
    variants on the given metric back-end). *)

val make_scheduler :
  algo_kind -> graph:Fr_dag.Graph.t -> tcam:Fr_tcam.Tcam.t -> Fr_sched.Algo.t
(** Instantiate the scheduler of an algorithm kind over existing state —
    the factory {!create} uses, exposed for components (e.g. {!Agent})
    that own their graph and TCAM. *)

type run

val create :
  ?latency:Fr_tcam.Latency.t ->
  ?check_invariant:bool ->
  ?contract_on_delete:bool ->
  ?layout_override:Fr_tcam.Layout.t ->
  algo_kind ->
  table:Fr_workload.Dataset.table ->
  tcam_size:int ->
  unit ->
  run
(** Place the table in a fresh TCAM according to the algorithm's layout
    (overridable, e.g. to study the interleaved layout), copy the graph,
    and set up the scheduler.  [contract_on_delete] preserves transitive
    ordering through deleted entries (semantics-preserving deletion; the
    paper's evaluation uses plain deletion, the default).
    @raise Invalid_argument if the table does not fit. *)

val graph : run -> Fr_dag.Graph.t
val tcam : run -> Fr_tcam.Tcam.t

val scheduler : run -> Fr_sched.Algo.t
(** The underlying scheduler — for callers that want to drive updates
    manually (e.g. to interpose {!Fr_sched.Check} between scheduling and
    application) while reusing [create]'s setup. *)

val exec : run -> Fr_workload.Updates.t -> (unit, string) result
(** One update through resolve -> compile -> schedule -> apply -> account.
    On [Error] the update is counted as failed and the table is left
    untouched (the graph effect of a failed insert is rolled back). *)

val exec_all : run -> Fr_workload.Updates.t list -> int
(** Runs a whole stream; returns the number of failed updates. *)

val firmware_times : run -> Measure.Series.t
(** Per-update firmware milliseconds. *)

val tcam_ms_total : run -> float
val tcam_writes : run -> int
val tcam_erases : run -> int
val moves_total : run -> int
(** Writes that re-positioned an existing entry. *)

val updates_done : run -> int
val failures : run -> int

val seq_lengths : run -> Measure.Series.t
(** Per-update sequence length (op count), for move-count analyses. *)
