(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014.  The golden-gamma increment guarantees a full
   2^64 period and the finaliser mixes state bits thoroughly. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create ~seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = bits64 t }

let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the low 62 bits avoids modulo bias. *)
  let mask = 0x3FFFFFFFFFFFFFFF in
  let rec loop () =
    let r = Int64.to_int (bits64 t) land mask in
    if r >= mask - (mask mod bound) then loop () else r mod bound
  in
  loop ()

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 high-quality mantissa bits. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int r /. 9007199254740992.0

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p = if p >= 1.0 then true else if p <= 0.0 then false else float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let weighted t choices =
  if Array.length choices = 0 then invalid_arg "Rng.weighted: empty array";
  let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 choices in
  if total <= 0.0 then invalid_arg "Rng.weighted: weights sum to zero";
  let target = float t *. total in
  let rec go i acc =
    if i = Array.length choices - 1 then snd choices.(i)
    else
      let w, x = choices.(i) in
      let acc = acc +. w in
      if target < acc then x else go (i + 1) acc
  in
  go 0 0.0

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p out of (0,1]";
  if p >= 1.0 then 0
  else
    (* Inverse-transform sampling: floor(log(u) / log(1-p)). *)
    let u = 1.0 -. float t in
    int_of_float (Float.floor (Float.log u /. Float.log (1.0 -. p)))
