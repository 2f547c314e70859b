module Rng = Fr_prng.Rng

(* The one retry schedule: 1, 2, 4, ... ms, capped at 64 ms, each delay
   spread uniformly over +-20% of its nominal value. *)
let base_ms = 1.0
let factor = 2.0
let max_ms = 64.0
let jitter = 0.2

type t = { rng : Rng.t }

let create ?rng ~seed () =
  { rng = (match rng with Some r -> r | None -> Rng.create ~seed) }

let delay_ms t ~attempt =
  if attempt < 1 then invalid_arg "Backoff.delay_ms: attempt is 1-based";
  let nominal =
    Float.min max_ms (base_ms *. Float.pow factor (float_of_int (attempt - 1)))
  in
  let spread = nominal *. jitter in
  nominal -. spread +. (2.0 *. spread *. Rng.float t.rng)
