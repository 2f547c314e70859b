module Dataset = Fr_workload.Dataset
module Updates = Fr_workload.Updates
module Layout = Fr_tcam.Layout

type spec = {
  kind : Dataset.kind;
  n : int;
  updates : int;
  with_deletes : bool;
  seed : int;
}

let updates_for n = if n <= 250 then 250 else if n <= 500 then 500 else 1000

type row = {
  algo : string;
  kind : string;
  n : int;
  updates_run : int;
  failed : int;
  fw : Measure.summary;
  tcam_total_ms : float;
  tcam_avg_ms : float;
  writes : int;
  erases : int;
  moves : int;
  seq_len_mean : float;
}

let table_memo : (Dataset.kind * int * int, Dataset.table) Hashtbl.t =
  Hashtbl.create 16

let table_cached kind ~seed ~n =
  match Hashtbl.find_opt table_memo (kind, seed, n) with
  | Some t -> t
  | None ->
      let t = Dataset.build_table kind ~seed ~n in
      Hashtbl.replace table_memo (kind, seed, n) t;
      t

let stream_for (spec : spec) =
  let table = table_cached spec.kind ~seed:spec.seed ~n:spec.n in
  let rng = Fr_prng.Rng.create ~seed:(spec.seed lxor 0x5EED) in
  let live = Array.to_list table.Dataset.order in
  Updates.generate rng ~live ~count:spec.updates ~with_deletes:spec.with_deletes
    ~id_base:(Array.length table.Dataset.rules)

type participation = All | Cap of int | Skip

let default_participation kind n =
  match kind with
  | Firmware.Naive ->
      (* O(n^2) per update: the paper drops it at 20k/40k ("cannot finish
         in half an hour"); we additionally cap the number of measured
         updates at mid sizes — per-update cost is what the figure plots,
         and it does not depend on how many updates were sampled. *)
      if n >= 20_000 then Skip
      else if n >= 10_000 then Cap 10
      else if n >= 4_000 then Cap 30
      else if n >= 2_000 then Cap 100
      else if n >= 1_000 then Cap 200
      else All
  | Firmware.Ruletris ->
      if n >= 20_000 then Cap 150 else if n >= 10_000 then Cap 300 else All
  | Firmware.FR_O _ | Firmware.FR_SD _ | Firmware.FR_SB _ -> All

let count_inserts stream =
  List.fold_left
    (fun acc u -> match u with Updates.Insert _ -> acc + 1 | Updates.Delete _ -> acc)
    0 stream

let run_one ?latency ?layout_override ?cap ~table ~stream kind =
  let stream =
    match cap with
    | None -> stream
    | Some k -> List.filteri (fun i _ -> i < k) stream
  in
  let n = Array.length table.Dataset.rules in
  let layout =
    Option.value layout_override ~default:(Firmware.layout_of kind)
  in
  let tcam_size =
    Layout.capacity_needed layout ~n:(n + count_inserts stream) + 16
  in
  let run = Firmware.create ?latency ?layout_override kind ~table ~tcam_size () in
  let failed = Firmware.exec_all run stream in
  let summary series = Measure.summarize (Measure.Series.to_array series) in
  let fw = summary (Firmware.firmware_times run) in
  let done_count = Firmware.updates_done run in
  {
    algo = Firmware.algo_kind_name kind;
    kind = Dataset.to_string table.Dataset.kind;
    n;
    updates_run = done_count;
    failed;
    fw;
    tcam_total_ms = Firmware.tcam_ms_total run;
    tcam_avg_ms =
      (if done_count = 0 then 0.0
       else Firmware.tcam_ms_total run /. float_of_int done_count);
    writes = Firmware.tcam_writes run;
    erases = Firmware.tcam_erases run;
    moves = Firmware.moves_total run;
    seq_len_mean = (summary (Firmware.seq_lengths run)).Measure.mean;
  }

let run_spec ?(participation = default_participation) (spec : spec) ~algos =
  let table = table_cached spec.kind ~seed:spec.seed ~n:spec.n in
  let stream = stream_for spec in
  List.filter_map
    (fun kind ->
      match participation kind spec.n with
      | Skip -> None
      | All -> Some (run_one ~table ~stream kind)
      | Cap k -> Some (run_one ~cap:k ~table ~stream kind))
    algos
