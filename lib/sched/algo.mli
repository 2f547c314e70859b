(** The common scheduler interface.

    A scheduler owns references to the shared dependency graph and TCAM and
    turns update requests into update sequences.  The firmware drives it
    with the protocol:

    + (insert) add the new node and its edges to the graph;
    + [schedule_insert] — pure computation, the "firmware time" span;
    + {!Fr_tcam.Tcam.apply_sequence} the result;
    + [after_apply] — the scheduler's own bookkeeping (metric maintenance,
      region accounting); also part of firmware time.

    Deletions mirror this with [schedule_delete] before the node is removed
    from the graph.

    Sequences are returned in {e application order}: the op that lands in
    free space comes first, the op that writes the requested entry last, so
    a left-to-right application never clobbers a live entry.  (The paper
    prints chains in the opposite, discovery order.)

    Application order is also the {e publication contract} for the
    concurrent read path: {!Fr_tcam.Tcam.apply_sequence} publishes a
    fresh immutable {!Fr_tcam.Image.t} after every op, so each
    intermediate state a scheduler emits becomes visible to wait-free
    readers.  Because every intermediate state of a correctly ordered
    sequence is lookup-safe, a snapshot grabbed mid-cascade always equals
    the semantic table either before or after the flow-mod — never a
    mix ({!Fr_conform.Oracle} proves this per scheduler). *)

type t = {
  name : string;
  schedule_insert :
    rule_id:int -> deps:int list -> dependents:int list -> (Fr_tcam.Op.t list, string) result;
      (** [deps] must end up above the new entry, [dependents] below; both
          must already be present in the TCAM. *)
  schedule_delete : rule_id:int -> (Fr_tcam.Op.t list, string) result;
  after_apply : Fr_tcam.Op.t list -> unit;
  rows_revived : int list -> unit;
      (** Rows the dead map cleared without a write (a probe found them
          healthy): whatever the scheduler derived from their dead status
          is settled again. *)
}

val insert_window :
  Fr_tcam.Tcam.t -> deps:int list -> dependents:int list ->
  (int * int, string) result
(** The candidate address window as the exclusive pair [(lo, hi)]: the new
    entry must land strictly between them.  [lo] is the highest dependent's
    address (or [-1] when unconstrained below), [hi] the lowest
    dependency's address (or [size] when unconstrained above).  An upward
    scheduler may additionally {e take} [hi] itself by displacing the
    dependency upward (window [\[lo+1, min hi (size-1)\]]); a downward one
    may take [lo] (window [\[max lo 0, hi-1\]]).  [Error] if a constraint
    entry is missing from the TCAM or [lo >= hi] (contradictory
    constraints). *)

val touched : scheduled:Fr_tcam.Op.t list -> Fr_tcam.Op.t list -> int list
(** [touched ~scheduled applied] — the addresses whose occupancy the
    [applied] ops may have changed, for a metric refresh.  When [applied]
    is not the whole [scheduled] sequence (a fault cut it short), every
    scheduled address is added: the source of the last applied move is
    left vacated, and it is the target of the next scheduled op. *)

val fresh_request_check :
  Fr_tcam.Tcam.t -> rule_id:int -> (unit, string) result
(** Inserting an entry that is already stored is a request error. *)
