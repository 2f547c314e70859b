let now_ms () = Unix.gettimeofday () *. 1000.0

let time_ms f =
  let t0 = now_ms () in
  let x = f () in
  (x, now_ms () -. t0)

type summary = {
  count : int;
  total : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

(* Nearest rank: the smallest sample with at least [p] of all samples at
   or below it. *)
let rank ~count p = max 1 (int_of_float (Float.ceil (p *. float_of_int count)))

(* All fields 0 when empty. *)
let summary_of ~count ~total ~min ~max pct =
  if count = 0 then
    { count; total = 0.; mean = 0.; min = 0.; max = 0.; p50 = 0.; p95 = 0.;
      p99 = 0.; p999 = 0. }
  else
    { count; total; mean = total /. float_of_int count; min; max;
      p50 = pct 0.50; p95 = pct 0.95; p99 = pct 0.99; p999 = pct 0.999 }

let summarize samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let at i = if n = 0 then 0.0 else sorted.(i) in
  summary_of ~count:n ~total:(Array.fold_left ( +. ) 0.0 sorted) ~min:(at 0)
    ~max:(at (n - 1)) (fun p -> at (min (n - 1) (rank ~count:n p - 1)))

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.4fms max=%.4fms p50=%.4fms p95=%.4fms p99=%.4fms" s.count
    s.mean s.max s.p50 s.p95 s.p99

module Series = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

module Hist = struct
  (* 8 buckets per octave over 64 octaves: bucket [b] holds
     [2^((b - 256) / 8), 2^((b - 255) / 8)), so bucket 256 starts at 1.0.
     Bucket 0 also takes everything below 2^-32 (zero included) and the
     last bucket everything from 2^31.875 up. *)
  let per_octave = 8.0
  let buckets = 512
  let offset = 256

  (* Bucket counts are floats (exact below 2^53) so the array is one the
     GC never scans: a shard keeps seven of these for its whole life. *)
  type t = {
    counts : float array;
    mutable count : int;
    acc : float array;  (* sum, min, max: unboxed, so [record] never allocates *)
  }

  let sum, lo, hi = (0, 1, 2)

  let create () =
    let acc = [| 0.0; infinity; neg_infinity |] in
    { counts = Array.make buckets 0.0; count = 0; acc }

  let lower_bound b = Float.pow 2.0 (float_of_int (b - offset) /. per_octave)
  let lowest = lower_bound 1
  let highest = lower_bound (buckets - 1)

  let bucket_of x =
    if x < lowest then 0
    else if x >= highest then buckets - 1
    else offset + int_of_float (Float.floor (Float.log2 x *. per_octave))

  let record t x =
    let x = if x > 0.0 then x else 0.0 in
    let b = bucket_of x in
    t.counts.(b) <- t.counts.(b) +. 1.0;
    t.count <- t.count + 1;
    t.acc.(sum) <- t.acc.(sum) +. x;
    if x < t.acc.(lo) then t.acc.(lo) <- x;
    if x > t.acc.(hi) then t.acc.(hi) <- x

  let total t = t.acc.(sum)

  (* A bucket's geometric midpoint; the two open-ended buckets answer with
     the recorded extreme on their side (via the clamp in [quantile]). *)
  let value_of b =
    if b = 0 then 0.0
    else if b = buckets - 1 then infinity
    else Float.pow 2.0 ((float_of_int (b - offset) +. 0.5) /. per_octave)

  let quantile t p =
    let target = float_of_int (rank ~count:t.count p) in
    let b = ref 0 and cum = ref t.counts.(0) in
    while !cum < target && !b < buckets - 1 do
      incr b;
      cum := !cum +. t.counts.(!b)
    done;
    Float.min t.acc.(hi) (Float.max t.acc.(lo) (value_of !b))

  let summary t =
    summary_of ~count:t.count ~total:t.acc.(sum) ~min:t.acc.(lo) ~max:t.acc.(hi)
      (quantile t)

  let merge ~into src =
    Array.iteri (fun b n -> into.counts.(b) <- into.counts.(b) +. n) src.counts;
    into.count <- into.count + src.count;
    into.acc.(sum) <- into.acc.(sum) +. src.acc.(sum);
    into.acc.(lo) <- Float.min into.acc.(lo) src.acc.(lo);
    into.acc.(hi) <- Float.max into.acc.(hi) src.acc.(hi)

  let nonempty_buckets t =
    List.filter_map
      (fun b ->
        let upper = if b = buckets - 1 then infinity else lower_bound (b + 1) in
        let n = int_of_float t.counts.(b) in
        if n = 0 then None else Some (upper, n))
      (List.init buckets Fun.id)
end
