(** The FastRule greedy TCAM update scheduler (Algorithm 1).

    Insertion: starting from the request's candidate window, repeatedly
    pick the address [A] with the smallest chain metric {!Metric} (ties to
    the highest address, like the algorithm's ascending scan with [<=]),
    emit [(I, f, A)], and continue with the displaced occupant, whose new
    window is [(A, bound occupant\]] — until [A] is free.  Termination and
    correctness are the paper's Propositions 1–2: free addresses have
    metric 0 and always win, the metric strictly decreases along the chosen
    chain, and every emitted move stays inside its entry's legal window.

    The metric query runs on any {!Store} back-end; with the BIT back-end
    this is the headline O(c_avg (log n)^2) configuration ("FR-O" on the
    original layout).  Deletion erases in place (one op, zero movements) —
    the free slot simply joins the pool and later insertions flow into it.

    The scheduler works in either {!Dir.t}; [Down] is used by the separated
    layout's top region (see {!Separated}). *)

type state

val create :
  ?backend:Store.backend ->
  ?dir:Dir.t ->
  graph:Fr_dag.Graph.t ->
  tcam:Fr_tcam.Tcam.t ->
  unit ->
  state
(** Defaults: [Bit_backend], [Up]. *)

val algo : state -> Algo.t
(** Name is ["fr-o/<backend>"]. *)

val store : state -> Store.t
(** The live metric store (for tests and the separated-layout composition). *)
