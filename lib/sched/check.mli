(** Update-sequence verification — the safety net the paper's host-side
    shadow table provides (§VI.1: the Linux server "is only used to ensure
    the correctness of our algorithm").

    A verified sequence guarantees that applying it to the given TCAM
    (left to right) never overwrites a live entry with a different one,
    and that the dependency-order invariant holds {e after every single
    op} — i.e. lookups stay correct mid-update, which is the property that
    lets firmware apply sequences without locking the data path.

    Every op is also a {e publication point}: the real table derives and
    publishes a copy-on-write {!Fr_tcam.Image.t} per committed op (one
    chunk plus its O(log{_32} n) interior path), so the simulation
    additionally checks {!Fr_tcam.Tcam.image_consistent} after each step
    — the snapshot a concurrent reader would grab at that instant must
    hold every indexed entry in its indexed slot with its bound payload,
    and nothing else.  The simulation runs on a {!Fr_tcam.Tcam.copy},
    which copies the writer's indexes and shares the immutable image. *)

val sequence :
  Fr_dag.Graph.t -> Fr_tcam.Tcam.t -> Fr_tcam.Op.t list -> (unit, string) result
(** [sequence graph tcam ops] simulates on copies; neither argument is
    modified.  [Error] pinpoints the first offending op. *)

val apply_verified :
  Fr_dag.Graph.t -> Fr_tcam.Tcam.t -> Fr_tcam.Op.t list -> (unit, string) result
(** Verify, then apply to the real TCAM only on success. *)
