(** Flow-table layouts (§V).

    Where the free slots live determines how far a displacement chain must
    travel:

    - {e Original}: entries packed at the bottom, all free space on top
      (Fig. 6a) — the layout FR-O runs on.
    - {e Interleaved K}: one free slot after every [K] used slots (Fig. 6b,
      the TreeCAM-style layout); chains stop within [K] steps until the
      local gaps fill up.
    - {e Separated}: entries split into a bottom and a top region with the
      free space pooled in the middle (Fig. 6c–d) — the layout FR-SB /
      FR-SD run on.

    [place] builds the initial TCAM image for a layout from a bottom-to-top
    entry order (the caller supplies an order consistent with the DAG, e.g.
    ascending precedence). *)

type t =
  | Original
  | Interleaved of int  (** gap period K >= 1 *)
  | Separated

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val capacity_needed : t -> n:int -> int
(** Minimum TCAM size able to hold [n] entries under the layout (the
    interleaved layout needs room for its gaps). *)

val place :
  ?deadmap:Deadmap.t ->
  ?payload:(int -> Fr_tern.Rule.t option) ->
  t ->
  tcam_size:int ->
  order:int array ->
  Tcam.t
(** [place layout ~tcam_size ~order] writes [order.(0)] lowest ... to a
    fresh TCAM according to the layout:
    - [Original]: addresses [0 .. n-1];
    - [Interleaved k]: address [i + i/k] (a gap after every [k] entries);
    - [Separated]: the lower half of [order] packed at the bottom
      ([0 ..]), the upper half packed against the top, free space between.

    When [deadmap] is given, the fresh TCAM adopts it and the canonical
    positions above index the sequence of {e writable} addresses instead
    of raw addresses, so placement packs around known-dead rows — the
    restart path for a switch re-adopting rules onto degraded hardware.

    The table is filled in one {!Tcam.load}: one pass over the chunks,
    one publish, no ops counted.  [payload] binds each id's rule as it is
    placed (default: none bound).
    @raise Invalid_argument if the entries do not fit on the writable
    rows. *)

type separated_regions = {
  mutable bottom_next : int;
      (** lowest middle-free address: bottom region is [\[0, bottom_next)] *)
  mutable top_next : int;
      (** highest middle-free address: top region is [(top_next, size)] *)
  mutable bottom_count : int;  (** live entries in the bottom region *)
  mutable top_count : int;  (** live entries in the top region *)
}
(** Mutable bookkeeping for the separated layout: which addresses belong to
    which region and how full each is.  Maintained by the separated
    scheduler as entries come and go. *)

val separated_regions_of : Tcam.t -> separated_regions
(** Infer regions from a TCAM image produced by [place Separated]: the
    bottom region ends at the first free address scanning up, the top
    region starts at the first free address scanning down.  Counts are the
    live entries inside each region (holes from dirty deletes are not
    counted). *)

val middle_free : separated_regions -> int
(** Number of addresses in the middle pool, [top_next - bottom_next + 1]
    (may be negative if the regions have met). *)
