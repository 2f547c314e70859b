(** Ternary bit strings — the TCAM match-field representation.

    A ternary string of width [w] assigns each of the [w] bit positions one
    of [0], [1] or [*] (don't-care).  It denotes the set of exact [w]-bit
    strings obtained by substituting [*] freely; two TCAM entries conflict
    exactly when their denoted sets intersect, which is what the dependency
    graph is built from.

    Internally a ternary string is a pair of bit vectors (value, care-mask)
    packed into [int64] chunks; all set operations are O(w/64), and the
    constructors ([of_string], [concat], [slice], [random]) fill whole
    chunks and check the representation invariant once per value. *)

type t

type bit =
  | Zero
  | One
  | Any  (** don't care *)

val width : t -> int
(** Number of bit positions. *)

val any : int -> t
(** [any w] is the all-wildcard string of width [w] (matches everything). *)

val exact_of_int64 : width:int -> int64 -> t
(** [exact_of_int64 ~width v] is the fully-specified string whose bits are
    the low [width] bits of [v], bit 0 being the least significant.
    Requires [width <= 64]. *)

val prefix_of_int64 : width:int -> plen:int -> int64 -> t
(** [prefix_of_int64 ~width ~plen v] cares only about the [plen] MOST
    significant of the [width] positions — the usual IP-prefix shape.
    The low [width - plen] positions are [Any]. *)

val get : t -> int -> bit
(** [get t i] is the bit at position [i] (0 = least significant).
    @raise Invalid_argument if [i] is out of range. *)

val set : t -> int -> bit -> t
(** Functional update of one position. *)

val of_string : string -> t
(** [of_string s] parses ['0'], ['1'], ['*'] characters; the LEFTMOST
    character is the most significant bit, as in the paper's figures
    (e.g. ["C*A"]-style examples map to ["1*0"]...).
    @raise Invalid_argument on other characters or an empty string. *)

val to_string : t -> string
(** Inverse of {!of_string} (most significant bit first). *)

val concat : t -> t -> t
(** [concat hi lo] glues two strings; [hi]'s positions become the most
    significant part of the result.  Used to assemble multi-field
    OpenFlow match fields. *)

val concat_list : t list -> t
(** [concat_list parts] glues the parts in one pass, the first part
    most significant; [concat hi lo = concat_list [hi; lo]].
    @raise Invalid_argument on an empty list. *)

val slice : t -> lo:int -> len:int -> t
(** [slice t ~lo ~len] extracts positions [lo .. lo+len-1]. *)

val is_exact : t -> bool
(** No [Any] positions. *)

val num_wildcards : t -> int
(** Number of [Any] positions. *)

val equal : t -> t -> bool
(** Structural equality (same width, same bits). *)

val compare : t -> t -> int
(** Total order consistent with {!equal}. *)

val hash : t -> int

val overlaps : t -> t -> bool
(** [overlaps a b] — do the denoted sets intersect?  True iff no position
    has [Zero] in one and [One] in the other.  Widths must agree.
    @raise Invalid_argument on width mismatch. *)

val subsumes : t -> t -> bool
(** [subsumes a b] — is every string matched by [b] also matched by [a]?
    I.e. [a] is a (non-strict) generalisation of [b]. *)

val intersect : t -> t -> t option
(** [intersect a b] is the ternary string denoting the intersection of the
    two sets, or [None] if they are disjoint. *)

val matches_value : t -> int64 array -> bool
(** [matches_value t v] — does the exact bit string [v] (packed like the
    internal chunks, bit 0 = LSB of chunk 0) belong to [t]'s set?  Only the
    low [width t] bits of [v] are consulted. *)

val random : Fr_prng.Rng.t -> width:int -> wildcard_prob:float -> t
(** Random ternary string; each position is independently [Any] with
    probability [wildcard_prob], else a fair [Zero]/[One]. *)

val random_exact_in : Fr_prng.Rng.t -> t -> int64 array
(** [random_exact_in rng t] samples a uniform member of [t]'s denoted set,
    returned as packed chunks suitable for {!matches_value}. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

(**/**)

val unsafe_chunks : t -> int64 array * int64 array
(** Internal: the live (value, care-mask) chunk vectors, {e not} copies —
    callers must never mutate them.  Exists for the policy compiler's
    pairwise-overlap loop, which tests hundreds of millions of pairs and
    cannot afford per-call indirection. *)
