(** Control-loop queueing simulation.

    The paper motivates fast updates with the switch's update-processing
    rate (a measured commercial switch sustains ~42 rule updates/s, and
    carrier failure recovery budgets 25 ms end-to-end).  A slow scheduler
    does not just delay one update — arrivals queue behind it, so the
    {e sojourn time} (queueing + service) is what the controller actually
    observes.

    This module runs a single-server FIFO discrete-event simulation:
    updates arrive (Poisson or periodic), each occupies the switch for its
    measured service time (firmware computation + modelled TCAM writes),
    and we report the sojourn distribution, queue depth and utilisation.
    Service times come from a real {!Firmware} run via
    {!service_times_of_run}, so the simulation composes directly with the
    experiment driver. *)

type arrival =
  | Poisson of float  (** mean arrivals per second *)
  | Periodic of float  (** exactly this many per second, evenly spaced *)

type result = {
  offered : int;  (** arrivals generated *)
  served : int;
  dropped : int;  (** arrivals refused because the queue was full *)
  mean_sojourn_ms : float;
  p99_sojourn_ms : float;
  max_sojourn_ms : float;
  max_queue_depth : int;
  utilisation : float;  (** busy time / makespan *)
}

val simulate :
  Fr_prng.Rng.t ->
  service_ms:float array ->
  arrival:arrival ->
  ?queue_capacity:int ->
  count:int ->
  unit ->
  result
(** [simulate rng ~service_ms ~arrival ~count ()] generates [count]
    arrivals; the i-th accepted update's service time is
    [service_ms.(i mod length)].  [queue_capacity] (default unbounded)
    drops arrivals that would exceed the backlog, like a full switch
    message buffer.
    @raise Invalid_argument on an empty [service_ms] or [count <= 0]. *)

val service_times_of_run : ?latency:Fr_tcam.Latency.t -> Firmware.run -> float array
(** Per-update service time of a completed run: measured firmware time
    plus the modelled hardware time of that update's op sequence. *)

val tcam_times_of_run : ?latency:Fr_tcam.Latency.t -> Firmware.run -> float array
(** The modelled hardware time alone of each update: a function of the
    op sequences, so equal seeds give equal arrays. *)

val saturation_rate : service_ms:float array -> float
(** Updates per second at 100% utilisation = 1000 / mean service time. *)

val pp_result : Format.formatter -> result -> unit
