module Dataset = Fr_workload.Dataset
module Stats = Fr_dag.Stats

let std = Format.std_formatter

let print_header title =
  Format.printf "@.=== %s ===@." title

let print_rows ?(out = std) rows =
  Format.fprintf out "%-10s %-6s %7s %6s | %12s %12s | %12s %10s | %8s %7s %7s %7s@."
    "algo" "kind" "n" "upd" "fw-mean(ms)" "fw-max(ms)" "tcam-tot(ms)"
    "tcam-avg" "writes" "erases" "moves" "seq-len";
  List.iter
    (fun (r : Experiment.row) ->
      Format.fprintf out
        "%-10s %-6s %7d %6d | %12.5f %12.5f | %12.1f %10.3f | %8d %7d %7d %7.2f@."
        r.Experiment.algo r.kind r.n r.updates_run r.fw.Measure.mean
        r.fw.Measure.max r.tcam_total_ms r.tcam_avg_ms r.writes r.erases r.moves
        r.seq_len_mean)
    rows

let print_table2 ?(out = std) entries =
  let kinds =
    List.sort_uniq compare (List.map (fun (k, _, _) -> k) entries)
  in
  List.iter
    (fun kind ->
      let cells =
        List.filter (fun (k, _, _) -> k = kind) entries
        |> List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b)
      in
      Format.fprintf out "@.Type %s@." (String.uppercase_ascii (Dataset.to_string kind));
      let line name f =
        Format.fprintf out "%-6s" name;
        List.iter (fun (_, _, s) -> Format.fprintf out " %9s" (f s)) cells;
        Format.fprintf out "@."
      in
      line "n" (fun s -> string_of_int s.Stats.n);
      line "m" (fun s -> string_of_int s.Stats.m);
      line "c_max" (fun s -> string_of_int s.Stats.c_max);
      line "c_avg" (fun s -> Printf.sprintf "%.1f" s.Stats.c_avg);
      line "d_in" (fun s -> Printf.sprintf "%.2f" s.Stats.d_in))
    kinds

let csv_header =
  "algo,kind,n,updates,failed,fw_mean_ms,fw_max_ms,fw_p50_ms,fw_p99_ms,tcam_total_ms,tcam_avg_ms,writes,erases,moves,seq_len_mean"

let row_to_csv (r : Experiment.row) =
  Printf.sprintf "%s,%s,%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.3f,%.5f,%d,%d,%d,%.3f"
    r.Experiment.algo r.kind r.n r.updates_run r.failed r.fw.Measure.mean
    r.fw.Measure.max r.fw.Measure.p50 r.fw.Measure.p99 r.tcam_total_ms
    r.tcam_avg_ms r.writes r.erases r.moves r.seq_len_mean
