(** Structural statistics of a dependency graph — Table II of the paper.

    The paper characterises each flow table by [n] (entries), [m] (edges),
    [c_max] / [c_avg] (largest / average "diameter" of the sub-graphs, i.e.
    the longest dependency chain of each weakly-connected component, counted
    in nodes) and [d_in] (average in-degree, observed to be < 1 on all real
    data sets).  These quantities drive FastRule's complexity analysis. *)

type t = {
  n : int;  (** number of nodes (flow entries) *)
  m : int;  (** number of edges (dependency requirements) *)
  n_components : int;  (** weakly-connected components *)
  c_max : int;  (** largest component diameter, in nodes *)
  c_avg : float;  (** average component diameter, in nodes *)
  d_in : float;  (** average in-degree over all nodes *)
  max_out_degree : int;
  max_in_degree : int;
}

val compute : Graph.t -> t
(** Full scan.  Components are found with union-find over undirected
    adjacency; each component's diameter is the longest path restricted to
    it (computed in one global longest-path pass).
    @raise Invalid_argument if the graph has a cycle. *)

val components : Graph.t -> int list list
(** Weakly-connected components, each as a node list (unspecified order). *)

val pp : Format.formatter -> t -> unit
(** One-line human-readable summary. *)
