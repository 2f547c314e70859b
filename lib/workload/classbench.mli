(** ClassBench-style synthetic rule tables (ACL and firewall shapes).

    Substitutes for ClassBench + ClassBench-ng from the paper's §VI.2: the
    generator emits 5-tuple OpenFlow rules organised into nesting families
    (see {!Profile}), giving direct control over the dependency-graph
    statistics that drive the schedulers' costs.  Rule priorities equal the
    number of cared bits of the packed match field, so a refinement always
    beats what it refines — the longest-prefix-match convention. *)

val generate :
  Profile.t -> Fr_prng.Rng.t -> n:int -> id_base:int -> Fr_tern.Rule.t array
(** [generate profile rng ~n ~id_base] — exactly [n] rules with ids
    [id_base .. id_base + n - 1].  Deterministic in the generator state. *)
