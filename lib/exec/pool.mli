(** Bounded pool of OCaml 5 domains with work-stealing submit and a
    deadline-aware join.

    The control plane fans independent per-shard drains out to a pool and
    joins them back in shard order; the pool itself is generic and knows
    nothing about shards.  Design points that matter to callers:

    - {b Persistent workers.}  A pool spawns its worker domains once at
      [create] time and keeps them parked on a condition variable between
      submissions.  Spawning a domain costs far more than a typical drain,
      and the runtime caps the number of live domains, so callers should
      share pools (see {!shared}) rather than create one per service.
    - {b Work stealing.}  Each worker owns a deque; [submit] distributes
      tasks round-robin, an idle worker drains its own deque first and then
      steals the oldest task from a sibling.  Tasks here are coarse (a whole
      shard drain), so all deques hang off a single pool lock — contention
      is a few lock acquisitions per task, not per operation.
    - {b Deterministic failure.}  A task that raises stores its exception in
      its handle; worker domains never die.  [await] surfaces the exception
      as [Error], so a join over many handles can merge results in a fixed
      order and decide what to re-raise.
    - {b Caller helps when unbounded, polls when deadlined.}  [await]
      without a deadline lends the calling domain to the pool (it executes
      queued tasks while waiting), so even a [~workers:0] pool makes
      progress.  With [~deadline_ms] the caller only polls — it must be able
      to return the moment the deadline passes, which it could not do from
      inside a borrowed task. *)

type t
(** A pool of worker domains. *)

type 'a handle
(** A submitted task: either still pending, or resolved to a value or to the
    exception the task raised. *)

exception Saturated
(** Raised by {!submit} when [max_pending] tasks are already queued. *)

exception Timed_out
(** Returned (as [Error Timed_out]) by {!await} when the deadline passes
    before the task resolves. *)

exception Shut_down
(** Raised by {!submit}/{!try_submit} on a pool that has been shut down. *)

val create : ?max_pending:int -> workers:int -> unit -> t
(** [create ~workers ()] spawns [workers] domains (in addition to the
    caller's).  [workers = 0] is legal: tasks then run inside un-deadlined
    [await] calls on the submitting domain — the exact legacy sequential
    path.  [max_pending] bounds the number of queued (not yet started)
    tasks; default 65536. *)

val workers : t -> int
(** Number of worker domains spawned by this pool. *)

val try_submit : t -> (unit -> 'a) -> 'a handle option
(** [try_submit t f] enqueues [f]; [None] if [max_pending] tasks are
    already queued.  @raise Shut_down on a stopped pool. *)

val submit : t -> (unit -> 'a) -> 'a handle
(** Like {!try_submit}.  @raise Saturated instead of returning [None]. *)

val await : ?deadline_ms:float -> 'a handle -> ('a, exn) result
(** [await h] blocks until [h] resolves: [Ok v] if the task returned [v],
    [Error e] if it raised [e].  Without a deadline the caller executes
    queued pool tasks while it waits.  With [~deadline_ms] (relative, in
    wall-clock milliseconds) the caller polls and returns
    [Error Timed_out] once the deadline passes; the task itself keeps
    running and may be awaited again. *)

val run_all : t -> (unit -> 'a) array -> ('a, exn) result array
(** [run_all t fs] submits every thunk, then awaits them all; result [i]
    corresponds to [fs.(i)] regardless of execution interleaving.  This is
    the deterministic join used by the parallel flush: outcomes are merged
    in submission order, so any re-raise policy downstream is stable.
    @raise Saturated if [fs] exceeds the pool's admission bound. *)

val shutdown : t -> unit
(** Graceful stop: lets queued tasks finish, joins the worker domains, and
    rejects further submissions.  Idempotent; concurrent [await]s on
    already-submitted handles still resolve. *)

val shared : workers:int -> t
(** [shared ~workers] returns a process-wide pool with that many workers,
    creating it on first use (or if a previous one was shut down).  Shared
    pools are joined via [at_exit].  This is what [Service.flush] uses, so
    any number of services and test cases reuse the same few domains
    instead of exhausting the runtime's domain limit. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1 — the default for
    [--domains] in the CLI. *)
