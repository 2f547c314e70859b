(** CAIDA-style synthetic routing tables (the paper's ROUTE data set).

    Substitutes for the routeviews-rv2-20170606 table: IPv4 destination
    prefixes drawn from a BGP-like prefix-length distribution (mass around
    /24 and /16), clustered into a small pool of first octets so that
    aggregates and their more-specifics coexist — the nesting that gives
    ROUTE the largest [c_avg] of the paper's data sets.  A tunable share of
    prefixes is generated as explicit refinements of existing ones
    (subnets announced inside aggregates).

    Rules match on the destination prefix only; priority is the prefix
    length (longest-prefix match). *)

val generate :
  ?refine_prob:float ->
  Fr_prng.Rng.t ->
  n:int ->
  id_base:int ->
  Fr_tern.Rule.t array
(** Exactly [n] distinct prefixes.  [refine_prob] (default 0.33) is the
    probability that a prefix refines an existing one. *)
