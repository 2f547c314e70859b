(** Wall-clock measurement and summary statistics for experiment runs. *)

val now_ms : unit -> float
(** Monotonic-enough wall clock in milliseconds (gettimeofday-based; the
    measured spans are pure computation, so NTP skew is a non-issue at the
    durations involved). *)

val time_ms : (unit -> 'a) -> 'a * float
(** Run the thunk, returning its result and the elapsed milliseconds. *)

type summary = {
  count : int;
  total : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

val summarize : float array -> summary
(** Exact percentiles by nearest rank on a sorted copy; [total] is summed
    in sorted order.  All fields are 0 for an empty array. *)

val pp_summary : Format.formatter -> summary -> unit

module Series : sig
  (** A growable series of float samples in arrival order, for a finite
      run that is replayed ({!Queue_sim}); distributions use {!Hist}. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val to_array : t -> float array
end

module Hist : sig
  (** A bounded, mergeable distribution of non-negative floats: 512
      geometric buckets, 8 per octave, over [\[2^-32, 2^32)] (the end
      buckets open), whose counts the GC never scans, so the footprint is
      fixed whatever the samples.  Count, record-order sum, min and max
      are exact; a quantile is its bucket's geometric midpoint clamped to
      [\[min, max\]]: within 2^(1/8) (about 9%) of the exact nearest-rank
      value inside the grid, exact for a constant distribution.
      {!record} is O(1) and allocation-free. *)

  type t

  val create : unit -> t

  val record : t -> float -> unit
  (** Negative and NaN samples are recorded as 0. *)

  val total : t -> float
  (** The sum of the recorded samples, added in record order. *)

  val summary : t -> summary
  (** All fields 0 when empty. *)

  val merge : into:t -> t -> unit
  (** Add the second histogram's samples into [into]. *)

  val nonempty_buckets : t -> (float * int) list
  (** [(upper, n)] per non-empty bucket in ascending order: [n] samples
      fell in [\[upper / 2^(1/8), upper)] ([upper] is [infinity] for the
      last bucket, and the first also holds everything below). *)
end
