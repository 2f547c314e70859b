(** Candidate index for match-field overlap queries.

    The policy compiler ({!Build.compile_fast}) and the switch agent's
    per-[Add] dependency step ask, for one rule, which indexed rules
    overlap it.  Two 5-tuple fields can only overlap when the leading
    cared prefix of their source addresses are compatible (one is a
    prefix of the other) and so are those of their destination
    addresses.  The index files every 104-bit rule
    ({!Fr_tern.Header.total_width}) by both prefixes and answers a query
    from exactly the rules compatible on both.

    {b Contract.}
    - {!iter_candidates} yields exactly the indexed rules of the query's
      width whose source and destination prefixes are each an ancestor
      of, equal to or a descendant of the query's own (for 104-bit
      rules), and every indexed rule of the query's width otherwise.
      The query's own id is included when indexed.
    - {!overlapping} and {!iter_overlapping} are exact: the candidates
      that {!Fr_tern.Rule.overlaps} the query, without the query's id.
    - Rules of different widths never overlap each other.

    {b Shape.}  Rules are kept in a path-compressed binary trie on the
    destination prefix; each node holds the rules whose destination
    prefix is exactly its own, in an array with no spare capacity.  A
    query visits the nodes on its destination's search path (ancestors)
    and the subtree below it (descendants); every rule it visits is
    destination-compatible, and the source test and the overlap test run
    on the rules' keys (the four ints {!Fr_tern.Rule.make} computes), so
    a query allocates nothing.  Rules of other widths sit in a plain
    list that a query of their width scans.

    The walk is proportional to the destination-compatible rules.  On
    the measured tables every rule with a destination shorter than /20
    has a wildcard source, so those are all candidates too, and the
    candidate set is the work.  A table with many source-specific rules
    under a short destination prefix would make a query on that prefix
    walk them all.

    Measured mean candidates and true overlaps per query (other than the
    query itself), every rule indexed, seed 42
    ([fastrule_cli stats -k KIND -n N --seed 42]):
    {v
      table   n        candidates  overlaps
      FW5      4 096      4.05       2.55
      FW5     16 384      4.23       2.65
      FW5     65 536      4.24       2.65
      ACL4    65 536      2.77       1.34
    v} *)

type t

val create : unit -> t

val add : t -> Fr_tern.Rule.t -> unit
(** Re-adding an indexed id swaps its payload in place (an action
    change) without re-filing it, so it must carry the same match
    field. *)

val remove : t -> Fr_tern.Rule.t -> unit
(** Locates the rule by its match field.  No-op if absent. *)

val length : t -> int

val iter_candidates : t -> Fr_tern.Rule.t -> (Fr_tern.Rule.t -> unit) -> unit
(** Every prefix-compatible rule (see the contract above). *)

val iter_overlapping : t -> Fr_tern.Rule.t -> (Fr_tern.Rule.t -> unit) -> unit
(** Every indexed rule that overlaps the query, except its own id. *)

val overlapping : t -> Fr_tern.Rule.t -> Fr_tern.Rule.t list
(** {!iter_overlapping} as a list. *)

val candidate_count : t -> Fr_tern.Rule.t -> int
(** Number of candidates other than the query's own id
    (instrumentation). *)
