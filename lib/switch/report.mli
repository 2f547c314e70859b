(** Plain-text reporting of experiment results — the tables and series the
    paper's figures plot. *)

val print_header : string -> unit
(** Banner with a rule line. *)

val print_rows : ?out:Format.formatter -> Experiment.row list -> unit
(** Aligned columns: algo, kind, n, updates, firmware mean/max, TCAM
    total/avg, writes/erases/moves, mean sequence length. *)

val print_table2 :
  ?out:Format.formatter ->
  (Fr_workload.Dataset.kind * int * Fr_dag.Stats.t) list ->
  unit
(** Table II layout: one block per kind, one column per size, rows
    n / m / c_max / c_avg / d_in. *)

val csv_header : string
val row_to_csv : Experiment.row -> string
