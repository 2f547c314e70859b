(** Hardware-write fault plans — the injection half of the conformance
    harness ([Fr_conform]).

    A plan decides, per attempted hardware write/erase, whether the
    operation is made to fail: either the target address is {e stuck}
    (every write fails, modelling a broken TCAM row — erases still
    succeed, see {!should_fail_erase}) or the operation fails
    spontaneously with probability [fail_prob] (modelling flaky SDK
    calls / bus errors).  Decisions are drawn from a dedicated seeded
    {!Fr_prng.Rng.t}, so a faulty run replays exactly.

    The consumer ([Fr_switch.Agent]) asks {!should_fail} before
    each raw operation and leave the hardware untouched when it answers
    [true]; the plan counts every injected failure so tests can assert
    how much damage was actually dealt. *)

type t

val create :
  ?fail_prob:float ->
  ?stuck:int list ->
  ?max_failures:int ->
  ?slow_ms:float ->
  seed:int ->
  unit ->
  t
(** [fail_prob] (default 0) is the per-operation spontaneous failure
    probability; [stuck] addresses always fail; [max_failures] caps the
    number of {e spontaneous} failures injected (stuck slots keep
    failing — hardware does not heal), default unlimited; [slow_ms]
    (default 0) is extra modelled latency billed per hardware operation
    — a latency fault: the op still succeeds, it just takes longer.
    @raise Invalid_argument if [fail_prob] is outside [\[0, 1\]] or
    [slow_ms] is negative or not finite. *)

type spec = {
  fail_prob : float;
  stuck : int list;
  max_failures : int option;
  slow_ms : float;
}
(** A plan's shape without its PRNG — the serialisable half, so fault
    plans can cross the CLI boundary as strings. *)

val of_spec : spec -> seed:int -> t
(** @raise Invalid_argument as {!create}. *)

val spec_to_string : spec -> string
(** ["p=0.1,stuck=3+9,max=4,slow=2.5"] (keys with default values
    omitted). *)

val spec_of_string : string -> (spec, string) result
(** Parse the {!spec_to_string} form; every key is optional and order is
    free ([p] in [\[0,1\]], [stuck] a [+]-separated address list, [max]
    a non-negative failure budget, [slow] a finite non-negative latency
    in ms).  Repeating a key is rejected rather than silently taking the
    last occurrence. *)

val should_fail : t -> addr:int -> bool
(** One decision for one attempted {e write} at [addr].  Advances the
    plan's PRNG; counts the failure when it answers [true]. *)

val should_fail_erase : t -> addr:int -> bool
(** One decision for one attempted {e erase} at [addr].  Stuck rows
    model stuck-at-write cells whose valid bit still clears, so erases
    only suffer the spontaneous [fail_prob] tier (drawn from the same
    PRNG stream as writes). *)

val is_stuck : t -> addr:int -> bool
(** Whether [addr] is in the plan's stuck set — the probe-drill query:
    it draws nothing from the PRNG and counts nothing, it just answers
    whether a write there would still be doomed. *)

val slow_ms : t -> float
(** Extra modelled latency billed per hardware operation (0 when the
    plan carries no latency fault). *)

val injected : t -> int
(** Failures injected so far (stuck hits included). *)

val pp : Format.formatter -> t -> unit
