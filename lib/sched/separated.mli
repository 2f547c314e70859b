(** FastRule on the separated layout (§V): entries split into a bottom and
    a top region with the free space pooled in the middle.

    Insertion (§V.1): when the candidate window lies entirely inside one
    region, the greedy runs there — upward in the bottom region, downward
    in the top region — with displacement windows {e clamped at the
    region's middle edge}, so chains spill exactly one slot into the middle
    pool and the region grows by one.  When the window straddles the middle
    the entry lands directly on a middle edge slot (zero movements), on the
    side currently holding {e fewer} entries (the paper's balance rule).
    If the middle pool is exhausted, the layout has degenerated and the
    scheduler falls back to the plain upward greedy over the whole window.

    Deletion (§V.2):
    - {e dirty} ("FR-SD"): erase in place — one op, no movements, but the
      hole is stranded inside its region;
    - {e balance} ("FR-SB"): erase, then migrate the hole to the region's
      middle edge by moving entries into it (nearest-first, preferring a
      single far jump when legal), returning the slot to the shared pool
      at the cost of extra TCAM movements.  This reproduces the paper's
      finding that FR-SB pays for deletions what it saves on insertions. *)

type delete_mode = Dirty | Balance

type state

val create :
  ?backend:Store.backend ->
  delete_mode:delete_mode ->
  graph:Fr_dag.Graph.t ->
  tcam:Fr_tcam.Tcam.t ->
  unit ->
  state
(** The TCAM must have been populated by
    [Layout.place Layout.Separated ...] (or be empty); the regions are
    inferred from its current image. *)

val algo : state -> Algo.t
(** Name is ["fr-sd/<backend>"] or ["fr-sb/<backend>"]. *)

val regions : state -> Fr_tcam.Layout.separated_regions
(** Live region bookkeeping (for tests and reporting). *)

val up_store : state -> Store.t
val down_store : state -> Store.t
(** The two live metric stores (for tests). *)
