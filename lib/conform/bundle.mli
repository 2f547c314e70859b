(** Divergence bundles: a failing conformance run, frozen for offline
    replay.

    When a service-level oracle run ({!Oracle.run_service}) finds a
    divergence, the interesting state is ephemeral — the trace lives in
    memory and the journal in a temp directory the oracle deletes on
    exit.  A bundle captures both before they vanish: a directory holding
    the serialized trace ({!Trace.save}), a [bundle.meta] header recording
    the injected fault and the run parameters, and (for crash runs) a
    verbatim copy of the journal directory.  [conform --replay] on a
    bundle re-runs the recorded fault bit-for-bit. *)

type fault =
  | Crash of { at : int; mid_drain : bool }
      (** kill a journaled single-shard service after [at] events — with
          [mid_drain], after the begin markers went durable but before any
          commit — and recover it from the journal *)
  | Slow of { shards : int; shard : int; ms : float }
      (** a persistent latency fault: every op on [shard] of a
          [shards]-shard failover service succeeds [ms] late *)
  | Stuck of { shards : int; shard : int; frac : float }
      (** a seeded stuck-at-write bank covering [frac] of [shard]'s rows *)
(** The fault a service-level differential run injects — the one
    description shared by {!Oracle.run_service} and [bundle.meta]. *)

val mode : fault -> string
(** The meta [mode] key and bundle directory prefix: ["crash"],
    ["failover"] or ["degraded"]. *)

type info = {
  fault : fault;
  batch : int;  (** events per flush window *)
  probes : int;  (** probe packets per comparison *)
}

val write :
  dir:string -> info -> trace:Trace.t -> journal:string option -> string
(** Materialise a bundle at [dir] (created if missing): the trace, the
    meta header, and — when [journal] names a directory — a [journal/]
    copy of its files.  Returns [dir]. *)

val is_bundle : string -> bool
(** [dir] holds a [bundle.meta] and a trace — i.e. [--replay] should
    treat it as a bundle, not a bare trace file. *)

val load : string -> (info * Trace.t, string) result
(** Read a bundle back.  A key the meta header lacks takes the value
    every writer used before it was recorded (8 probes, a 10% stuck bank,
    8 ms/op); an unknown [mode] or an unparsable value is an [Error]. *)

val journal_dir : string -> string option
(** The bundle's captured journal copy, when it has one. *)

val trace_file : string -> string
(** Path of the bundle's serialized trace. *)

val pp_info : Format.formatter -> info -> unit
