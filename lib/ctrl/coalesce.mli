(** The per-shard coalescing queue.

    Flow-mods arrive faster than a TCAM can absorb them (BGP churn bursts
    touch the same prefixes over and over), so each shard buffers its ops
    and folds redundant work {e before} it reaches the firmware:

    - [Add] then [Remove] of the same pending rule annihilate — two ops
      that would have cost a full insertion sequence plus an erase cost
      nothing;
    - repeated [Set_action] keeps only the last action;
    - [Set_action] followed by [Remove] drops the moot rewrite;
    - [Remove] of an installed rule followed by [Add] of the same id
      becomes a {e replace}: the erase and the re-insert both survive, in
      that order.

    Folding is only sound against a known base state: [Add 5] over an
    {e installed} rule 5 is a duplicate that must fail, while [Add 5] over
    an empty slot is a real insertion — and [Add 5; Remove 5] cancels in
    the second case but must leave the installed rule alone (and report
    the doomed [Add]) in the first.  The caller therefore passes
    [~installed] (the owning agent's view) on every push; between drains
    the agent does not change, so the answer stays truthful for the
    queue's whole lifetime.  Ops that can {e never} succeed against that
    base state (duplicate adds, removes of absent rules) are rejected at
    push time and reported by the next drain rather than wasting a trip
    through the scheduler.

    The guiding invariant, which the property tests drive with random
    streams: {e draining the queue into the agent leaves exactly the
    table that replaying the raw stream (failed ops ignored) would have
    left.}

    The drain plan {!pending_ops} emits erases first (freeing TCAM slots
    for what follows), then in-place action rewrites, then insertions in
    arrival order; a drain hands each to {!Fr_switch.Agent.apply} in
    that order. *)

type t

val create : unit -> t

type outcome =
  | Queued  (** started a new pending entry *)
  | Folded  (** merged into an existing pending entry: one op saved *)
  | Annihilated
      (** cancelled a pending [Add] outright: two ops saved *)
  | Rejected of string
      (** can never succeed against the base state; reported at drain *)

val push : ?epoch:int -> t -> installed:bool -> Fr_switch.Agent.flow_mod -> outcome
(** [push q ~installed fm] — fold [fm] into the queue.  [installed] is
    whether the op's rule id is currently installed in the owning agent
    (ignoring the queue's own pending ops).

    [epoch] is the id's placement epoch under failover routing: if the id
    already has pending ops recorded under a {e different} epoch the push
    is [Rejected] (an "epoch fence") instead of queued, because mixing
    epochs in one queue would mean the id's ops were interleaving across
    two shard placements.  The service only re-homes an id when it has no
    pending ops, so a fence firing indicates a routing bug, not load.
    Omitted = unfenced (the pre-failover behaviour). *)

val depth : t -> int
(** Pending entries (a replace counts once). *)

val mem : t -> int -> bool
(** Whether rule [id] has a pending entry — whether any op of
    {!pending_ops} touches it. *)

val is_empty : t -> bool
(** No pending ops {e and} no rejections to report. *)

val coalesced : t -> int
(** Ops folded away since the last {!clear} — submitted work that will
    never reach the scheduler or the hardware. *)

val pending_ops : t -> Fr_switch.Agent.flow_mod list
(** The drain plan: removes (including the erase half of replaces), then
    action rewrites, then adds in arrival order. *)

val rejected : t -> (Fr_switch.Agent.flow_mod * string) list
(** Push-time rejections in arrival order. *)

val clear : t -> unit
(** Empty the queue and reset {!coalesced} / {!rejected} — called by the
    shard once a drain's plan has been handed to the agent. *)
