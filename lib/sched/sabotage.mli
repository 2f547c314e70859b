(** Deliberately broken schedulers — the conformance harness' test hook.

    A differential oracle is only trustworthy if it demonstrably catches a
    wrong scheduler; [wrap] manufactures one by mangling the update
    sequences an otherwise-correct scheduler emits.  Both modes leave
    single-op sequences alone (those carry no ordering obligations worth
    breaking) and corrupt every multi-op sequence in a way
    {!Check.sequence} provably rejects: some op ends up writing over a
    still-live entry.

    This lives in the library (not the tests) so the CLI's
    [conform --break] flag and the test suite share one saboteur. *)

type mode =
  | Reverse  (** apply the sequence back to front: the final insert now
                 comes first and lands on the occupied chain slot *)
  | Drop_first
      (** lose the op that vacates the chain's free-space end: every
          later op writes onto a live entry *)

val all_modes : mode list
val mode_to_string : mode -> string
val mode_of_string : string -> mode option

val wrap : mode -> Algo.t -> Algo.t
(** The same scheduler with every emitted multi-op sequence mangled
    (insertions and deletions both); [after_apply] is delegated
    untouched. *)
