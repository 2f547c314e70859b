(** Exponential backoff with deterministic jitter.

    Delays are {e modelled} milliseconds, in the same spirit as the
    latency model ({!Fr_tcam.Latency}): the supervisor accounts them in
    telemetry instead of sleeping, so tests and benches stay fast and
    reproducible.  Jitter is drawn from a seeded {!Fr_prng.Rng.t} —
    equal seeds give equal retry schedules. *)

type t

val create : ?rng:Fr_prng.Rng.t -> seed:int -> unit -> t
(** The schedule is fixed: base 1 ms, factor 2, capped at 64 ms, each
    delay spread uniformly over ±20% of its nominal value.  [rng] injects
    an already-derived jitter stream (e.g. one {!Fr_prng.Rng.split} per
    shard) and supersedes [seed] — the way a supervisor owning many
    backoffs keeps their streams independent instead of threading one
    generator across all of them. *)

val delay_ms : t -> attempt:int -> float
(** Delay before retry [attempt] (1-based):
    [2^(attempt-1)] ms capped at 64 ms, jittered.
    Advances the jitter PRNG. *)
