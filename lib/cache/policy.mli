(** Flow-driven admission/eviction policies.

    A policy scores rules by how hot the traffic says they are and picks
    eviction victims when an admission needs room.  It is deliberately
    closure-blind about {e membership} — the tier owns the dependency
    bookkeeping — but closure-{e aware} about cost: victims are chosen
    whole eviction groups at a time, and a group is only as cold as its
    hottest member, so a popular dependent protects the cold dependency
    it relies on.

    Two policies ship:

    - {!Lru}: admit on first miss; victim score is the last-access tick.
      The classic baseline, maximally eager, churns the most.
    - {!Fdrc}: flow-driven rule caching in the spirit of the FDRC line
      of work — admit only after a rule has missed [admit_after] times
      (one-hit wonders never enter), score by access frequency, and
      refuse to evict any group as hot as the rule being admitted (the
      anti-thrash guard: equal-temperature traffic settles instead of
      swapping). *)

type kind = Lru | Fdrc of { admit_after : int }

val kind_to_string : kind -> string
(** ["lru"] or ["fdrc:<admit_after>"] (plain ["fdrc"] means
    [admit_after = 2]). *)

val kind_of_string : string -> kind option
(** Inverse of {!kind_to_string}. *)

type t

val create : kind -> t
val kind : t -> kind

val touch : t -> id:int -> tick:int -> unit
(** A cache hit (or any access) on [id] at logical time [tick]. *)

val note_miss : t -> id:int -> tick:int -> unit
(** A miss whose backing answer was [id]. *)

val should_admit : t -> id:int -> bool
(** Consult after {!note_miss}: is [id] hot enough to cache? *)

val score : t -> id:int -> float
(** Hotness (bigger = hotter; 0 for never-seen ids). *)

val victims :
  t ->
  candidates:int list ->
  group_of:(int -> Fr_tern.Rule.Id_set.t) ->
  protect:Fr_tern.Rule.Id_set.t ->
  need:int ->
  limit:float ->
  Fr_tern.Rule.Id_set.t option
(** Choose whole eviction groups freeing at least [need] slots.
    [candidates] are the currently cached ids; [group_of] maps a victim
    to its eviction closure (itself plus cached dependents — evicted
    together or not at all); [protect] is the admission closure being
    installed (never evicted); [limit] is the admitted rule's own score
    — groups whose hottest member scores at or above it are off-limits.
    Groups are taken coldest-first.  [None] when the achievable victims
    cannot free [need] slots (the caller should skip the admission). *)
