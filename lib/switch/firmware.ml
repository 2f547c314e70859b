module Tcam = Fr_tcam.Tcam
module Op = Fr_tcam.Op
module Layout = Fr_tcam.Layout
module Latency = Fr_tcam.Latency
module Graph = Fr_dag.Graph
module Store = Fr_sched.Store
module Algo = Fr_sched.Algo
module Updates = Fr_workload.Updates
module Dataset = Fr_workload.Dataset

type algo_kind =
  | Naive
  | Ruletris
  | FR_O of Store.backend
  | FR_SD of Store.backend
  | FR_SB of Store.backend

let algo_kind_name = function
  | Naive -> "naive"
  | Ruletris -> "ruletris"
  | FR_O _ -> "fr-o"
  | FR_SD _ -> "fr-sd"
  | FR_SB _ -> "fr-sb"

(* Inverse of [algo_kind_name] plus the CLI's backend-qualified spellings
   (fr-o/array, fr-o/od); bare FastRule names resolve to the BIT backend. *)
let algo_kind_of_string s =
  match String.lowercase_ascii s with
  | "naive" -> Some Naive
  | "ruletris" -> Some Ruletris
  | "fr-o" -> Some (FR_O Store.Bit_backend)
  | "fr-o/array" -> Some (FR_O Store.Array_backend)
  | "fr-o/od" | "fr-o/on-demand" -> Some (FR_O Store.On_demand)
  | "fr-sd" -> Some (FR_SD Store.Bit_backend)
  | "fr-sb" -> Some (FR_SB Store.Bit_backend)
  | _ -> None

let layout_of = function
  | Naive | Ruletris | FR_O _ -> Layout.Original
  | FR_SD _ | FR_SB _ -> Layout.Separated

let standard_algos backend =
  [ Naive; Ruletris; FR_O backend; FR_SD backend; FR_SB backend ]

type run = {
  graph : Graph.t;
  tcam : Tcam.t;
  algo : Algo.t;
  latency : Latency.t;
  check_invariant : bool;
  contract_on_delete : bool;
  firmware : Measure.Series.t;
  seq_lens : Measure.Series.t;
  mutable tcam_ms : float;
  mutable writes : int;
  mutable erases : int;
  mutable done_count : int;
  mutable failed : int;
}

let make_scheduler kind ~graph ~tcam =
  match kind with
  | Naive -> Fr_sched.Naive.(algo (create ~tcam))
  | Ruletris -> Fr_sched.Ruletris.make ~graph ~tcam
  | FR_O backend -> Fr_sched.Fastrule.(algo (create ~backend ~graph ~tcam ()))
  | FR_SD backend ->
      Fr_sched.Separated.(algo (create ~backend ~delete_mode:Dirty ~graph ~tcam ()))
  | FR_SB backend ->
      Fr_sched.Separated.(
        algo (create ~backend ~delete_mode:Balance ~graph ~tcam ()))

let create ?(latency = Latency.default) ?(check_invariant = false)
    ?(contract_on_delete = false) ?layout_override kind ~table ~tcam_size () =
  let layout = Option.value layout_override ~default:(layout_of kind) in
  let tcam = Layout.place layout ~tcam_size ~order:table.Dataset.order in
  let graph = Graph.copy table.Dataset.graph in
  let algo = make_scheduler kind ~graph ~tcam in
  {
    graph;
    tcam;
    algo;
    latency;
    check_invariant;
    contract_on_delete;
    firmware = Measure.Series.create ();
    seq_lens = Measure.Series.create ();
    tcam_ms = 0.0;
    writes = 0;
    erases = 0;
    done_count = 0;
    failed = 0;
  }

let graph r = r.graph
let tcam r = r.tcam
let scheduler r = r.algo

let account_ops r ops =
  Measure.Series.add r.seq_lens (float_of_int (List.length ops));
  List.iter
    (function
      | Op.Insert _ -> r.writes <- r.writes + 1
      | Op.Delete _ -> r.erases <- r.erases + 1)
    ops;
  r.tcam_ms <- r.tcam_ms +. Latency.sequence_ms r.latency ops

let check r =
  if r.check_invariant then
    match Tcam.check_dag_order r.tcam r.graph with
    | Ok () -> Ok ()
    | Error msg -> Error ("dependency invariant violated: " ^ msg)
  else Ok ()

let exec r update =
  let resolved = Updates.resolve r.graph r.tcam update in
  let outcome =
    match resolved with
    | Updates.R_insert { id; deps; dependents } -> (
        (* Compiler stage first: the scheduler sees the new node's edges. *)
        Updates.apply_graph r.graph resolved;
        let result, dt =
          Measure.time_ms (fun () ->
              r.algo.Algo.schedule_insert ~rule_id:id ~deps ~dependents)
        in
        match result with
        | Error msg ->
            Graph.remove_node r.graph id;
            Error msg
        | Ok ops ->
            account_ops r ops;
            Tcam.apply_sequence r.tcam ops;
            let (), dt2 = Measure.time_ms (fun () -> r.algo.Algo.after_apply ops) in
            Measure.Series.add r.firmware (dt +. dt2);
            check r)
    | Updates.R_delete { id } -> (
        let result, dt =
          Measure.time_ms (fun () -> r.algo.Algo.schedule_delete ~rule_id:id)
        in
        match result with
        | Error msg -> Error msg
        | Ok ops ->
            account_ops r ops;
            Tcam.apply_sequence r.tcam ops;
            Updates.apply_graph ~contract:r.contract_on_delete r.graph resolved;
            let (), dt2 = Measure.time_ms (fun () -> r.algo.Algo.after_apply ops) in
            Measure.Series.add r.firmware (dt +. dt2);
            check r)
  in
  (match outcome with
  | Ok () -> r.done_count <- r.done_count + 1
  | Error _ -> r.failed <- r.failed + 1);
  outcome

let exec_all r updates =
  List.iter (fun u -> ignore (exec r u)) updates;
  r.failed

let firmware_times r = r.firmware
let tcam_ms_total r = r.tcam_ms
let tcam_writes r = r.writes
let tcam_erases r = r.erases
let moves_total r = Tcam.moves_issued r.tcam
let updates_done r = r.done_count
let failures r = r.failed
let seq_lengths r = r.seq_lens
