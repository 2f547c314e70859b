(* Failure recovery: can the switch re-route within the carrier deadline?

   The paper's introduction motivates fast updates with carrier-network
   failure recovery: after a link failure, re-routing "has to be finished
   within 25 ms" (MPLS transport profile) to avoid congestion and loss.
   Re-routing means a burst of flow-entry updates hitting one switch.

   This example simulates a link failure that forces [burst] rules of a
   2k-entry FW5 table to be replaced (delete old path + insert new path),
   and asks, per scheduler: how many re-routed flows make the 25 ms
   deadline, and how long does the whole burst take?  Total latency per
   update = firmware time (measured) + TCAM time (0.6 ms per hardware
   write, the model both FastRule and RuleTris use).

   Run with:  dune exec examples/failure_recovery.exe *)

open Fastrule

let deadline_ms = 25.0
let n = 2_000
let burst = 40

let fw_total run =
  Array.fold_left ( +. ) 0.0 (Measure.Series.to_array (Firmware.firmware_times run))

let () =
  Format.printf "=== Failure recovery: %d re-routed flows, %.0f ms deadline ===@.@."
    burst deadline_ms;
  let table = Dataset.build_table Dataset.FW5 ~seed:7 ~n in
  let rng = Rng.create ~seed:99 in
  (* A re-route = delete the old entry, insert its replacement: an
     alternating stream of 2 x burst updates. *)
  let stream =
    Updates.generate rng
      ~live:(Array.to_list table.Dataset.order)
      ~count:(2 * burst) ~with_deletes:true ~id_base:n
  in
  let latency = Latency.default in
  Format.printf "%-10s %14s %14s %14s %10s@." "algo" "burst total(ms)"
    "worst flow(ms)" "mean flow(ms)" "made 25ms";
  List.iter
    (fun kind ->
      let run =
        Firmware.create ~latency ~check_invariant:true kind ~table
          ~tcam_size:(2 * n) ()
      in
      (* Walk the stream in insert/delete pairs: one pair = one flow
         re-route; its latency is the pair's firmware + TCAM time. *)
      let flow_latencies = ref [] in
      let rec pairs = function
        | ins :: del :: rest ->
            let writes_before = Firmware.tcam_writes run + Firmware.tcam_erases run in
            let fw_before = fw_total run in
            ignore (Firmware.exec run ins);
            ignore (Firmware.exec run del);
            let fw_after = fw_total run in
            let writes_after = Firmware.tcam_writes run + Firmware.tcam_erases run in
            let tcam_ms =
              Latency.ops_ms latency
                ~writes:(writes_after - writes_before)
                ~erases:0
            in
            flow_latencies := (fw_after -. fw_before +. tcam_ms) :: !flow_latencies;
            pairs rest
        | [ single ] ->
            ignore (Firmware.exec run single);
            []
        | [] -> []
      in
      ignore (pairs stream);
      let lats = Array.of_list !flow_latencies in
      let s = Measure.summarize lats in
      let made =
        Array.fold_left (fun acc l -> if l <= deadline_ms then acc + 1 else acc) 0 lats
      in
      Format.printf "%-10s %14.1f %14.2f %14.2f %6d/%d@."
        (Firmware.algo_kind_name kind) s.Measure.total s.Measure.max
        s.Measure.mean made (Array.length lats))
    [
      Firmware.Naive;
      Firmware.Ruletris;
      Firmware.FR_O Store.Bit_backend;
      Firmware.FR_SD Store.Bit_backend;
    ];
  Format.printf
    "@.Reading: with the naive priority firmware a single re-route moves \
     ~n/2 entries at 0.6 ms each — hopeless against 25 ms.  The DAG-based \
     schedulers move ~c_avg entries; FastRule additionally makes the \
     firmware computation negligible.@."
