module Rng = Fr_prng.Rng

type arrival = Poisson of float | Periodic of float

type result = {
  offered : int;
  served : int;
  dropped : int;
  mean_sojourn_ms : float;
  p99_sojourn_ms : float;
  max_sojourn_ms : float;
  max_queue_depth : int;
  utilisation : float;
}

(* Exponential inter-arrival with mean 1000/rate ms. *)
let next_gap rng = function
  | Poisson rate ->
      if rate <= 0.0 then invalid_arg "Queue_sim: arrival rate must be positive";
      let u = 1.0 -. Rng.float rng in
      -.Float.log u *. 1000.0 /. rate
  | Periodic rate ->
      if rate <= 0.0 then invalid_arg "Queue_sim: arrival rate must be positive";
      1000.0 /. rate

let simulate rng ~service_ms ~arrival ?queue_capacity ~count () =
  if Array.length service_ms = 0 then
    invalid_arg "Queue_sim.simulate: no service times";
  if count <= 0 then invalid_arg "Queue_sim.simulate: count must be positive";
  let sojourns = ref [] in
  let served = ref 0 and dropped = ref 0 in
  let clock = ref 0.0 in
  (* Finish times of accepted-but-unfinished updates, oldest first: the
     backlog.  A FIFO single server means each accepted update starts when
     the previous one finishes. *)
  let backlog = Queue.create () in
  let prev_finish = ref 0.0 in
  let busy = ref 0.0 in
  let max_depth = ref 0 in
  let svc_index = ref 0 in
  for _ = 1 to count do
    clock := !clock +. next_gap rng arrival;
    (* Retire finished work from the backlog. *)
    while (not (Queue.is_empty backlog)) && Queue.peek backlog <= !clock do
      ignore (Queue.pop backlog)
    done;
    let depth = Queue.length backlog in
    let accept =
      match queue_capacity with Some cap -> depth < cap | None -> true
    in
    if not accept then incr dropped
    else begin
      let service = service_ms.(!svc_index mod Array.length service_ms) in
      incr svc_index;
      let start = Float.max !clock !prev_finish in
      let finish = start +. service in
      prev_finish := finish;
      busy := !busy +. service;
      Queue.push finish backlog;
      max_depth := max !max_depth (depth + 1);
      sojourns := (finish -. !clock) :: !sojourns;
      incr served
    end
  done;
  let s = Measure.summarize (Array.of_list !sojourns) in
  let makespan = Float.max !prev_finish !clock in
  {
    offered = count;
    served = !served;
    dropped = !dropped;
    mean_sojourn_ms = s.Measure.mean;
    p99_sojourn_ms = s.Measure.p99;
    max_sojourn_ms = s.Measure.max;
    max_queue_depth = !max_depth;
    utilisation = (if makespan > 0.0 then !busy /. makespan else 0.0);
  }

(* seq_lengths records op counts; with symmetric write/erase cost the
   hardware time is ops x cost.  (Asymmetric costs would need per-op
   kinds; the paper's model is symmetric.) *)
let tcam_times_of_run ?(latency = Fr_tcam.Latency.default) run =
  Array.map
    (fun o -> o *. latency.Fr_tcam.Latency.write_ms)
    (Measure.Series.to_array (Firmware.seq_lengths run))

let service_times_of_run ?latency run =
  let fw = Measure.Series.to_array (Firmware.firmware_times run) in
  Array.map2 ( +. ) fw (tcam_times_of_run ?latency run)

let saturation_rate ~service_ms =
  let s = Measure.summarize service_ms in
  if s.Measure.mean <= 0.0 then infinity else 1000.0 /. s.Measure.mean

let pp_result ppf r =
  Format.fprintf ppf
    "served %d/%d (dropped %d) sojourn mean=%.2fms p99=%.2fms max=%.2fms \
     depth<=%d util=%.0f%%"
    r.served r.offered r.dropped r.mean_sojourn_ms r.p99_sojourn_ms
    r.max_sojourn_ms r.max_queue_depth (100.0 *. r.utilisation)
