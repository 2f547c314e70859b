(** Deterministic pseudo-random number generation.

    All randomness in this repository flows through this module so that
    workloads, update streams and property tests are reproducible from a
    single integer seed.  The core generator is splitmix64, which has a
    64-bit state, passes BigCrush, and is trivially splittable — ideal for
    deriving independent streams for independent experiment legs. *)

type t
(** A mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is statistically
    independent of [t]'s continuation.  Advances [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing it. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).
    Requires [lo <= hi]. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list.
    @raise Invalid_argument on an empty list. *)

val weighted : t -> (float * 'a) array -> 'a
(** [weighted t choices] picks an element with probability proportional to
    its weight.  Weights must be non-negative and not all zero.
    @raise Invalid_argument on an empty or all-zero array. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] samples the number of failures before the first success
    of a Bernoulli([p]) trial, i.e. a geometric distribution on
    [{0, 1, ...}].  Requires [0 < p <= 1]. *)
