(* A ternary string is (value, mask) chunk vectors: mask bit 1 = the position
   is cared about and equals the corresponding value bit; mask bit 0 = Any.
   Invariant: value bits are 0 wherever mask is 0, and bits at positions
   >= width are 0 in both vectors.  The invariant makes equality, hashing
   and set algebra plain chunk-wise logic. *)

type t = { width : int; value : int64 array; mask : int64 array }

type bit = Zero | One | Any

let chunks_for width = (width + 63) / 64

(* Mask selecting the valid bits of the last chunk. *)
let tail_mask width =
  let r = width land 63 in
  if r = 0 then -1L else Int64.sub (Int64.shift_left 1L r) 1L

let check_invariant t =
  let n = Array.length t.value in
  assert (n = chunks_for t.width && n = Array.length t.mask);
  for i = 0 to n - 1 do
    assert (Int64.logand t.value.(i) (Int64.lognot t.mask.(i)) = 0L);
    if i = n - 1 then begin
      let tm = tail_mask t.width in
      assert (Int64.logand t.value.(i) (Int64.lognot tm) = 0L);
      assert (Int64.logand t.mask.(i) (Int64.lognot tm) = 0L)
    end
  done;
  t

let width t = t.width

let any w =
  if w <= 0 then invalid_arg "Ternary.any: width must be positive";
  { width = w; value = Array.make (chunks_for w) 0L; mask = Array.make (chunks_for w) 0L }

let exact_of_int64 ~width:w v =
  if w <= 0 || w > 64 then invalid_arg "Ternary.exact_of_int64: width out of (0,64]";
  let tm = tail_mask w in
  let value = Array.make (chunks_for w) 0L in
  let mask = Array.make (chunks_for w) 0L in
  value.(0) <- Int64.logand v tm;
  mask.(0) <- tm;
  check_invariant { width = w; value; mask }

let prefix_of_int64 ~width:w ~plen v =
  if w <= 0 || w > 64 then invalid_arg "Ternary.prefix_of_int64: width out of (0,64]";
  if plen < 0 || plen > w then invalid_arg "Ternary.prefix_of_int64: plen out of range";
  (* Care about the plen most-significant of the w positions. *)
  let care =
    if plen = 0 then 0L
    else Int64.logand (Int64.shift_left (-1L) (w - plen)) (tail_mask w)
  in
  let value = Array.make (chunks_for w) 0L in
  let mask = Array.make (chunks_for w) 0L in
  value.(0) <- Int64.logand v care;
  mask.(0) <- care;
  check_invariant { width = w; value; mask }

let get t i =
  if i < 0 || i >= t.width then invalid_arg "Ternary.get: index out of range";
  let c = i / 64 and b = i land 63 in
  if Int64.logand t.mask.(c) (Int64.shift_left 1L b) = 0L then Any
  else if Int64.logand t.value.(c) (Int64.shift_left 1L b) = 0L then Zero
  else One

let set t i bit =
  if i < 0 || i >= t.width then invalid_arg "Ternary.set: index out of range";
  let c = i / 64 and b = Int64.shift_left 1L (i land 63) in
  let value = Array.copy t.value and mask = Array.copy t.mask in
  (match bit with
  | Any ->
      value.(c) <- Int64.logand value.(c) (Int64.lognot b);
      mask.(c) <- Int64.logand mask.(c) (Int64.lognot b)
  | Zero ->
      value.(c) <- Int64.logand value.(c) (Int64.lognot b);
      mask.(c) <- Int64.logor mask.(c) b
  | One ->
      value.(c) <- Int64.logor value.(c) b;
      mask.(c) <- Int64.logor mask.(c) b);
  check_invariant { t with value; mask }

(* Builds a value chunk by chunk: [bit c b] is the position [64c + b],
   and each chunk is accumulated in a local word before it is stored. *)
let build w bit =
  let n = chunks_for w in
  let value = Array.make n 0L and mask = Array.make n 0L in
  for c = 0 to n - 1 do
    let v = ref 0L and m = ref 0L in
    for b = 0 to min 63 (w - 1 - (64 * c)) do
      match bit c b with
      | Any -> ()
      | Zero -> m := Int64.logor !m (Int64.shift_left 1L b)
      | One ->
          let one = Int64.shift_left 1L b in
          v := Int64.logor !v one;
          m := Int64.logor !m one
    done;
    value.(c) <- !v;
    mask.(c) <- !m
  done;
  check_invariant { width = w; value; mask }

let of_string s =
  let w = String.length s in
  if w = 0 then invalid_arg "Ternary.of_string: empty string";
  (* Leftmost character = most significant position. *)
  build w (fun c b ->
      match s.[w - 1 - ((64 * c) + b)] with
      | '0' -> Zero
      | '1' -> One
      | '*' -> Any
      | _ -> invalid_arg "Ternary.of_string: expected '0', '1' or '*'")

let to_string t =
  String.init t.width (fun pos ->
      match get t (t.width - 1 - pos) with Zero -> '0' | One -> '1' | Any -> '*')

(* The [len] (1..64) positions of chunk vector [a] from [lo] up, in the
   low bits of one word. *)
let extract a ~lo ~len =
  let c = lo lsr 6 and b = lo land 63 in
  let w = Int64.shift_right_logical a.(c) b in
  let w =
    if b > 0 && c + 1 < Array.length a then
      Int64.logor w (Int64.shift_left a.(c + 1) (64 - b))
    else w
  in
  Int64.logand w (tail_mask len)

(* OR the chunks of [src] into [dst] from position [lo] up; [dst] must
   be wide enough for every position [src] sets. *)
let deposit src dst ~lo =
  let b = lo land 63 in
  Array.iteri
    (fun j w ->
      if w <> 0L then begin
        let c = (lo lsr 6) + j in
        dst.(c) <- Int64.logor dst.(c) (Int64.shift_left w b);
        if b > 0 && c + 1 < Array.length dst then
          dst.(c + 1) <- Int64.logor dst.(c + 1) (Int64.shift_right_logical w (64 - b))
      end)
    src

let slice t ~lo ~len =
  if lo < 0 || len <= 0 || lo + len > t.width then invalid_arg "Ternary.slice: out of range";
  let part a k = extract a ~lo:(lo + (64 * k)) ~len:(min 64 (len - (64 * k))) in
  let n = chunks_for len in
  check_invariant
    { width = len; value = Array.init n (part t.value); mask = Array.init n (part t.mask) }

let concat_list parts =
  let width = List.fold_left (fun acc p -> acc + p.width) 0 parts in
  if width = 0 then invalid_arg "Ternary.concat_list: no parts";
  let n = chunks_for width in
  let value = Array.make n 0L and mask = Array.make n 0L in
  (* The last part is the least significant. *)
  ignore
    (List.fold_right
       (fun p lo ->
         deposit p.value value ~lo;
         deposit p.mask mask ~lo;
         lo + p.width)
       parts 0);
  check_invariant { width; value; mask }

let concat hi lo = concat_list [ hi; lo ]

let is_exact t =
  let n = Array.length t.mask in
  let ok = ref true in
  for i = 0 to n - 1 do
    let expect = if i = n - 1 then tail_mask t.width else -1L in
    if t.mask.(i) <> expect then ok := false
  done;
  !ok

let popcount64 x =
  let rec go x acc = if x = 0L then acc else go (Int64.logand x (Int64.sub x 1L)) (acc + 1) in
  go x 0

let num_wildcards t =
  let cared = Array.fold_left (fun acc m -> acc + popcount64 m) 0 t.mask in
  t.width - cared

let equal a b =
  a.width = b.width
  && Array.for_all2 Int64.equal a.value b.value
  && Array.for_all2 Int64.equal a.mask b.mask

let compare a b =
  let c = Int.compare a.width b.width in
  if c <> 0 then c
  else
    let rec go i =
      if i = Array.length a.value then 0
      else
        let c = Int64.compare a.value.(i) b.value.(i) in
        if c <> 0 then c
        else
          let c = Int64.compare a.mask.(i) b.mask.(i) in
          if c <> 0 then c else go (i + 1)
    in
    go 0

let hash t =
  let h = ref (Hashtbl.hash t.width) in
  Array.iter (fun v -> h := (!h * 31) + Int64.to_int v) t.value;
  Array.iter (fun m -> h := (!h * 31) + Int64.to_int m) t.mask;
  !h land max_int

let check_same_width fname a b =
  if a.width <> b.width then invalid_arg (fname ^ ": width mismatch")

(* Disjoint iff some position is cared by both and disagrees. *)
let overlaps a b =
  check_same_width "Ternary.overlaps" a b;
  let n = Array.length a.value in
  let ok = ref true in
  for i = 0 to n - 1 do
    let both = Int64.logand a.mask.(i) b.mask.(i) in
    let diff = Int64.logxor a.value.(i) b.value.(i) in
    if Int64.logand both diff <> 0L then ok := false
  done;
  !ok

(* a subsumes b iff a's cared positions are a subset of b's and agree there. *)
let subsumes a b =
  check_same_width "Ternary.subsumes" a b;
  let n = Array.length a.value in
  let ok = ref true in
  for i = 0 to n - 1 do
    if Int64.logand a.mask.(i) (Int64.lognot b.mask.(i)) <> 0L then ok := false;
    let diff = Int64.logxor a.value.(i) b.value.(i) in
    if Int64.logand a.mask.(i) diff <> 0L then ok := false
  done;
  !ok

let intersect a b =
  check_same_width "Ternary.intersect" a b;
  if not (overlaps a b) then None
  else
    let n = Array.length a.value in
    let value = Array.make n 0L and mask = Array.make n 0L in
    for i = 0 to n - 1 do
      mask.(i) <- Int64.logor a.mask.(i) b.mask.(i);
      value.(i) <- Int64.logor a.value.(i) b.value.(i)
    done;
    Some (check_invariant { width = a.width; value; mask })

let matches_value t v =
  let n = Array.length t.value in
  if Array.length v < n then invalid_arg "Ternary.matches_value: value too short";
  let ok = ref true in
  for i = 0 to n - 1 do
    let relevant = if i = n - 1 then tail_mask t.width else -1L in
    let diff = Int64.logxor t.value.(i) (Int64.logand v.(i) relevant) in
    if Int64.logand t.mask.(i) diff <> 0L then ok := false
  done;
  !ok

let random rng ~width:w ~wildcard_prob =
  if w <= 0 then invalid_arg "Ternary.random: width must be positive";
  (* Draws run from position 0 up, one chance and maybe one coin each. *)
  build w (fun _ _ ->
      if Fr_prng.Rng.chance rng wildcard_prob then Any
      else if Fr_prng.Rng.bool rng then One
      else Zero)

let random_exact_in rng t =
  let n = Array.length t.value in
  let v = Array.make n 0L in
  for i = 0 to n - 1 do
    let relevant = if i = n - 1 then tail_mask t.width else -1L in
    let rand = Int64.logand (Fr_prng.Rng.bits64 rng) relevant in
    (* Cared bits come from the pattern, free bits from the random draw. *)
    v.(i) <-
      Int64.logor
        (Int64.logand t.mask.(i) t.value.(i))
        (Int64.logand (Int64.lognot t.mask.(i)) rand)
  done;
  v

let pp ppf t = Format.pp_print_string ppf (to_string t)

let unsafe_chunks t = (t.value, t.mask)
