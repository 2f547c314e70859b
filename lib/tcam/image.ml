module Rule = Fr_tern.Rule
module Ternary = Fr_tern.Ternary

type slot = Free | Used of int

(* Slots live in leaves of [chunk] slots under [fan]-way interior nodes.
   A chunk holds each slot's payload and, while the image has no index,
   its match key: four unboxed ints per slot copied from the rule's own
   key ([lo_value] .. [hi_mask] of [Rule.t]).  An empty subtree is the
   constant [Empty], so free space costs one word per interior pointer
   and the lookup scan skips it.

   From [index_min] entries up the image answers lookups from a
   tuple-space index instead (below), and its chunks carry no keys.  The
   index is dropped again below [index_min / 2] entries, so a table
   hovering at the cutoff does not rebuild it on every op.  Measured on
   one-shard FW5 and ACL4 tables (EXPERIMENTS.md): at 128 entries the
   scan and the index answer about equally fast, from 256 up the index
   wins. *)
let chunk_bits = 4
let chunk = 1 lsl chunk_bits
let fan_bits = 5
let fan = 1 lsl fan_bits
let index_min = 256

(* A placed id without a payload carries a placeholder payload with this
   field; it and [vacant] (the free slot) get a key no packet matches. *)
let hollow = Ternary.any 1
let placeholder id = Rule.make ~id ~field:hollow ~action:Rule.Drop ~priority:0
let vacant = placeholder (-1)
let is_bound (r : Rule.t) = r.Rule.field != hollow

(* [lo land m = v] fails for any [lo] when [v] is negative. *)
let never = min_int

(* -- tuple-space index --------------------------------------------------- *)

(* One tuple per care mask ([lo_mask], [hi_mask]); each maps the masked
   value ([lo_value], [hi_value]) to the addresses that hold it, through a
   bitmap-compressed 32-way hash trie.  A node keeps its entries inline as
   (lo, hi, addr) int triples, so a probe never touches a [Rule.t]:
   [datamap] marks the digits holding one inline triple, [nodemap] those
   holding a sub-node.  A node with both maps 0 is a bucket: two or more
   triples with one full hash (equal keys at several addresses, or a
   collision), highest address first.  Every sub-node holds at least two
   triples; a removal that leaves one pulls it up into the parent. *)
type trie = { datamap : int; nodemap : int; data : int array; kids : trie array }

let empty_trie = { datamap = 0; nodemap = 0; data = [||]; kids = [||] }
let is_empty n = n.datamap lor n.nodemap = 0 && Array.length n.data = 0
let is_bucket n = n.datamap lor n.nodemap = 0 && Array.length n.data > 0

(* 60 bits, consumed five at a time from the top. *)
let hash lo hi =
  let x = (lo * 0x2545F4914F6CDD1D) + ((hi lxor (hi lsr 29)) * 0x1B873593) in
  let x = x lxor (x lsr 32) in
  (x * 0x3C6EF372FE94F82B) lsr 3

let top_shift = 55
let bit_at h shift = 1 lsl ((h lsr shift) land (fan - 1))

let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  (((x + (x lsr 4)) land 0x0f0f0f0f) * 0x01010101) lsr 24 land 0xff

let rank map bit = popcount (map land (bit - 1))

(* Fresh copies of a triple array with one triple inserted at or deleted
   from int offset [j], and of a kid array likewise.  Each allocates one
   array; the int copies are plain loops. *)
let ins3 a j lo hi addr =
  let n = Array.length a in
  let b = Array.make (n + 3) lo in
  for i = 0 to j - 1 do
    Array.unsafe_set b i (Array.unsafe_get a i)
  done;
  b.(j + 1) <- hi;
  b.(j + 2) <- addr;
  for i = j to n - 1 do
    Array.unsafe_set b (i + 3) (Array.unsafe_get a i)
  done;
  b

let del3 a j =
  let n = Array.length a - 3 in
  let b = Array.make n 0 in
  for i = 0 to j - 1 do
    Array.unsafe_set b i (Array.unsafe_get a i)
  done;
  for i = j to n - 1 do
    Array.unsafe_set b i (Array.unsafe_get a (i + 3))
  done;
  b

let ins_kid a j k =
  let b = Array.make (Array.length a + 1) k in
  Array.blit a 0 b 0 j;
  Array.blit a j b (j + 1) (Array.length a - j);
  b

let del_kid a j =
  let b = Array.sub a 0 (Array.length a - 1) in
  Array.blit a (j + 1) b j (Array.length a - j - 1);
  b

let set_kid a j k =
  let a = Array.copy a in
  a.(j) <- k;
  a

(* The triple (lo, hi, addr) in [data] from int offset [j] on. *)
let rec find3 (data : int array) j (lo : int) hi addr =
  if j >= Array.length data then invalid_arg "Image: the index lost an entry"
  else if data.(j) = lo && data.(j + 1) = hi && data.(j + 2) = addr then j
  else find3 data (j + 3) lo hi addr

(* A bucket of the given triples, highest address first. *)
let bucket triples =
  let n = Array.length triples / 3 in
  let order = List.init n Fun.id in
  let order =
    List.sort
      (fun i j -> Int.compare triples.((3 * j) + 2) triples.((3 * i) + 2))
      order
  in
  {
    empty_trie with
    data = Array.concat (List.map (fun i -> Array.sub triples (3 * i) 3) order);
  }

(* A sub-node holding two triples of different hashes. *)
let rec pair shift lo1 hi1 a1 h1 lo2 hi2 a2 h2 =
  let b1 = bit_at h1 shift and b2 = bit_at h2 shift in
  if b1 = b2 then
    {
      empty_trie with
      nodemap = b1;
      kids = [| pair (shift - fan_bits) lo1 hi1 a1 h1 lo2 hi2 a2 h2 |];
    }
  else if b1 < b2 then
    { empty_trie with datamap = b1 lor b2; data = [| lo1; hi1; a1; lo2; hi2; a2 |] }
  else { empty_trie with datamap = b1 lor b2; data = [| lo2; hi2; a2; lo1; hi1; a1 |] }

let rec insert n shift lo hi addr h =
  if is_bucket n then
    let hb = hash n.data.(0) n.data.(1) in
    if hb = h then bucket (ins3 n.data 0 lo hi addr)
    else
      (* A bucket meeting another hash moves one level down. *)
      insert
        { empty_trie with nodemap = bit_at hb shift; kids = [| n |] }
        shift lo hi addr h
  else
    let bit = bit_at h shift in
    if n.datamap land bit <> 0 then begin
      let j = 3 * rank n.datamap bit in
      let lo' = n.data.(j) and hi' = n.data.(j + 1) and a' = n.data.(j + 2) in
      let h' = hash lo' hi' in
      let sub =
        if h' = h then bucket [| lo'; hi'; a'; lo; hi; addr |]
        else pair (shift - fan_bits) lo' hi' a' h' lo hi addr h
      in
      {
        datamap = n.datamap lxor bit;
        nodemap = n.nodemap lor bit;
        data = del3 n.data j;
        kids = ins_kid n.kids (rank n.nodemap bit) sub;
      }
    end
    else if n.nodemap land bit <> 0 then
      let j = rank n.nodemap bit in
      {
        n with
        kids = set_kid n.kids j (insert n.kids.(j) (shift - fan_bits) lo hi addr h);
      }
    else
      {
        n with
        datamap = n.datamap lor bit;
        data = ins3 n.data (3 * rank n.datamap bit) lo hi addr;
      }

let rec remove n shift lo hi addr h =
  if is_bucket n then { n with data = del3 n.data (find3 n.data 0 lo hi addr) }
  else
    let bit = bit_at h shift in
    if n.datamap land bit <> 0 then
      let j = 3 * rank n.datamap bit in
      {
        n with
        datamap = n.datamap lxor bit;
        data = del3 n.data (find3 n.data j lo hi addr);
      }
    else if n.nodemap land bit <> 0 then begin
      let j = rank n.nodemap bit in
      let kid = remove n.kids.(j) (shift - fan_bits) lo hi addr h in
      if kid.nodemap = 0 && Array.length kid.data = 3 then
        (* One triple left below: pull it up. *)
        {
          datamap = n.datamap lor bit;
          nodemap = n.nodemap lxor bit;
          data =
            ins3 n.data (3 * rank n.datamap bit) kid.data.(0) kid.data.(1)
              kid.data.(2);
          kids = del_kid n.kids j;
        }
      else { n with kids = set_kid n.kids j kid }
    end
    else invalid_arg "Image: the index lost an entry"

(* The same key moved from [src] to [dst]: one path copy. *)
let rec relocate n shift lo hi src dst h =
  if is_bucket n then begin
    let data = Array.copy n.data in
    data.(find3 data 0 lo hi src + 2) <- dst;
    bucket data
  end
  else
    let bit = bit_at h shift in
    if n.datamap land bit <> 0 then begin
      let data = Array.copy n.data in
      data.(find3 data (3 * rank n.datamap bit) lo hi src + 2) <- dst;
      { n with data }
    end
    else if n.nodemap land bit <> 0 then
      let j = rank n.nodemap bit in
      {
        n with
        kids = set_kid n.kids j (relocate n.kids.(j) (shift - fan_bits) lo hi src dst h);
      }
    else invalid_arg "Image: the index lost an entry"

(* Highest address holding exactly (lo, hi) under [n], or -1.  Sub-nodes
   are never empty, so maps both 0 mark a bucket there. *)
let rec probe n shift lo hi h =
  let bit = bit_at h shift in
  if n.datamap land bit <> 0 then
    let j = 3 * rank n.datamap bit in
    let d = n.data in
    if Array.unsafe_get d j = lo && Array.unsafe_get d (j + 1) = hi then
      Array.unsafe_get d (j + 2)
    else -1
  else if n.nodemap land bit <> 0 then
    let kid = Array.unsafe_get n.kids (rank n.nodemap bit) in
    if kid.datamap lor kid.nodemap = 0 then probe_bucket kid.data lo hi 0
    else probe kid (shift - fan_bits) lo hi h
  else -1

and probe_bucket d lo hi j =
  if j >= Array.length d then -1
  else if Array.unsafe_get d j = lo && Array.unsafe_get d (j + 1) = hi then
    Array.unsafe_get d (j + 2)
  else probe_bucket d lo hi (j + 3)

(* Placeholder payloads and keys no packet matches stay out of the index. *)
let indexable (r : Rule.t) = is_bound r && r.lo_value <> never

let same_key (a : Rule.t) (b : Rule.t) =
  a.lo_value = b.lo_value && a.lo_mask = b.lo_mask && a.hi_value = b.hi_value
  && a.hi_mask = b.hi_mask

(* The tuple of care mask ([lm], [hm]) in [masks] (two ints per tuple)
   from int offset [j] on, or -1. *)
let rec tuple_at (masks : int array) (lm : int) hm j =
  if j >= Array.length masks then -1
  else if Array.unsafe_get masks j = lm && Array.unsafe_get masks (j + 1) = hm
  then j / 2
  else tuple_at masks lm hm (j + 2)

let tuple_of masks (r : Rule.t) = tuple_at masks r.lo_mask r.hi_mask 0

(* The digit of entry [x] of the flat array [e] (lo, hi, addr and hash
   at [4x] .. [4x + 3]) at [shift]. *)
let digit_of (e : int array) shift x = (e.((4 * x) + 3) lsr shift) land (fan - 1)

(* [src.(a) .. src.(b - 1)] sorted by digit into [dst]: by insertion for
   a few entries, else by counting with [cnt]. *)
let sort_by_digit e src dst (cnt : int array) a b shift =
  if b - a <= 16 then
    for k = a to b - 1 do
      let x = src.(k) in
      let d = digit_of e shift x in
      let j = ref (k - 1) in
      while !j >= a && digit_of e shift dst.(!j) > d do
        dst.(!j + 1) <- dst.(!j);
        decr j
      done;
      dst.(!j + 1) <- x
    done
  else begin
    for d = 0 to fan - 1 do
      cnt.(d) <- 0
    done;
    for k = a to b - 1 do
      let d = digit_of e shift src.(k) in
      cnt.(d) <- cnt.(d) + 1
    done;
    let next = ref a in
    for d = 0 to fan - 1 do
      let c = cnt.(d) in
      cnt.(d) <- !next;
      next := !next + c
    done;
    for k = a to b - 1 do
      let x = src.(k) in
      let d = digit_of e shift x in
      dst.(cnt.(d)) <- x;
      cnt.(d) <- cnt.(d) + 1
    done
  end

(* The end of the run of entries sharing [dst.(k)]'s digit. *)
let rec run_end e dst b shift d k =
  if k < b && digit_of e shift dst.(k) = d then run_end e dst b shift d (k + 1) else k

(* The trie over entries [src.(a) .. src.(b - 1)], built in one pass per
   level: sorted by digit into [dst], then one inline triple, one bucket
   or one sub-trie per run of a digit.  The sub-tries sort back into
   [src], which this level is done with; [counts.(depth)] is this
   level's tally. *)
let rec build_range e src dst counts a b shift depth =
  sort_by_digit e src dst counts.(depth) a b shift;
  let datamap = ref 0 and nodemap = ref 0 and k = ref a in
  while !k < b do
    let d = digit_of e shift dst.(!k) in
    let j = run_end e dst b shift d (!k + 1) in
    if j - !k = 1 then datamap := !datamap lor (1 lsl d)
    else nodemap := !nodemap lor (1 lsl d);
    k := j
  done;
  let data = Array.make (3 * popcount !datamap) 0 in
  let kids = Array.make (popcount !nodemap) empty_trie in
  let nd = ref 0 and nk = ref 0 and k = ref a in
  while !k < b do
    let lo = !k in
    let x = dst.(lo) in
    let j = run_end e dst b shift (digit_of e shift x) (lo + 1) in
    if j - lo = 1 then begin
      data.(!nd) <- e.(4 * x);
      data.(!nd + 1) <- e.((4 * x) + 1);
      data.(!nd + 2) <- e.((4 * x) + 2);
      nd := !nd + 3
    end
    else begin
      let h = e.((4 * x) + 3) in
      let same = ref true in
      for i = lo + 1 to j - 1 do
        same := !same && e.((4 * dst.(i)) + 3) = h
      done;
      kids.(!nk) <-
        (if !same then
           bucket
             (Array.concat
                (List.init (j - lo) (fun i -> Array.sub e (4 * dst.(lo + i)) 3)))
         else build_range e dst src counts lo j (shift - fan_bits) (depth + 1));
      incr nk
    end;
    k := j
  done;
  { datamap = !datamap; nodemap = !nodemap; data; kids }

(* The masks and tries of the indexable (addr, rule) pairs, at most [n]
   of them, that [iter] visits: the entries are gathered into flat
   arrays, grouped by tuple, and each tuple's range is built. *)
let index_of n iter =
  let e = Array.make (4 * n) 0 and tuple = Array.make n 0 in
  let masks = ref [||] and k = ref 0 in
  iter (fun addr (r : Rule.t) ->
      if indexable r then begin
        let i =
          match tuple_of !masks r with
          | -1 ->
              masks := Array.append !masks [| r.lo_mask; r.hi_mask |];
              (Array.length !masks / 2) - 1
          | i -> i
        in
        let b = 4 * !k in
        e.(b) <- r.lo_value;
        e.(b + 1) <- r.hi_value;
        e.(b + 2) <- addr;
        e.(b + 3) <- hash r.lo_value r.hi_value;
        tuple.(!k) <- i;
        incr k
      end);
  let n = !k and m = Array.length !masks / 2 in
  (* [ix] lists the entries grouped by tuple, tuple [i] from [first.(i)]. *)
  let first = Array.make (m + 1) 0 in
  for k = 0 to n - 1 do
    first.(tuple.(k) + 1) <- first.(tuple.(k) + 1) + 1
  done;
  for i = 1 to m do
    first.(i) <- first.(i) + first.(i - 1)
  done;
  let next = Array.sub first 0 m and ix = Array.make n 0 in
  for k = 0 to n - 1 do
    let i = tuple.(k) in
    ix.(next.(i)) <- k;
    next.(i) <- next.(i) + 1
  done;
  let tmp = Array.make n 0 in
  let counts = Array.init ((top_shift / fan_bits) + 2) (fun _ -> Array.make fan 0) in
  ( !masks,
    Array.init m (fun i ->
        build_range e ix tmp counts first.(i) first.(i + 1) top_shift 0) )

(* -- slots --------------------------------------------------------------- *)

type node =
  | Empty
  | Leaf of { keys : int array; rules : Rule.t array; used : int }
  | Inner of node array

type t = {
  root : node;
  levels : int;  (* interior levels above the leaves *)
  size : int;
  count : int;
  epoch : int;
  indexed : bool;  (* from [index_min] entries on; its chunks carry no keys *)
  masks : int array;  (* care mask of tuple [i] at [2i], [2i + 1] *)
  roots : trie array;  (* the trie of tuple [i] *)
}

let empty_keys = Array.init (4 * chunk) (fun j -> if j land 3 = 0 then never else 0)
let no_keys = [||]

let set_key keys i (r : Rule.t) =
  let b = 4 * i in
  if is_bound r then begin
    keys.(b) <- r.lo_value;
    keys.(b + 1) <- r.lo_mask;
    keys.(b + 2) <- r.hi_value;
    keys.(b + 3) <- r.hi_mask
  end
  else Array.blit empty_keys b keys b 4

let rec levels_for size span =
  if span >= size then 0 else 1 + levels_for size (span * fan)

let create ~size =
  if size < 0 then invalid_arg "Image.create: negative size";
  {
    root = Empty;
    levels = levels_for size chunk;
    size;
    count = 0;
    epoch = 0;
    indexed = false;
    masks = [||];
    roots = [||];
  }

let empty = create ~size:0
let epoch t = t.epoch
let size t = t.size
let entry_count t = t.count
let indexed t = t.indexed
let shift_of level = chunk_bits + (fan_bits * (level - 1))

let check_addr t addr =
  if addr < 0 || addr >= t.size then invalid_arg "Image: address out of range"

(* [addr < size <= chunk * fan^levels] bounds every index: rule arrays
   hold [chunk] slots and interior arrays [fan] kids. *)
let rec find node shift addr =
  match node with
  | Leaf { rules; _ } -> Array.unsafe_get rules (addr land (chunk - 1))
  | Inner kids ->
      find
        (Array.unsafe_get kids ((addr lsr shift) land (fan - 1)))
        (shift - fan_bits) addr
  | Empty -> vacant

let at t addr =
  check_addr t addr;
  find t.root (shift_of t.levels) addr

let read t addr =
  let r = at t addr in
  if r == vacant then Free else Used r.Rule.id

let is_free t addr = at t addr == vacant

let rule_at t addr =
  let r = at t addr in
  if is_bound r then Some r else None

let all_empty kids =
  let rec go i = i < 0 || (kids.(i) == Empty && go (i - 1)) in
  go (fan - 1)

(* The node with slot [addr] holding [r] ([vacant] frees it): copies the
   leaf (its keys only when [keyed]) and the interior nodes on its path,
   shares everything else, and collapses subtrees left without entries
   back to [Empty]. *)
let rec put ~keyed node level addr r =
  if level = 0 then begin
    let keys, rules, used =
      match node with
      | Leaf { keys; rules; used } ->
          ((if keyed then Array.copy keys else no_keys), Array.copy rules, used)
      | Empty ->
          ( (if keyed then Array.copy empty_keys else no_keys),
            Array.make chunk vacant,
            0 )
      | Inner _ -> assert false
    in
    let i = addr land (chunk - 1) in
    let used =
      used + Bool.to_int (r != vacant) - Bool.to_int (rules.(i) != vacant)
    in
    rules.(i) <- r;
    if keyed then set_key keys i r;
    if used = 0 then Empty else Leaf { keys; rules; used }
  end
  else begin
    let kids =
      match node with
      | Inner kids -> Array.copy kids
      | Empty -> Array.make fan Empty
      | Leaf _ -> assert false
    in
    let i = (addr lsr shift_of level) land (fan - 1) in
    kids.(i) <- put ~keyed kids.(i) (level - 1) addr r;
    if kids.(i) == Empty && all_empty kids then Empty else Inner kids
  end

let fold_slots root levels init f =
  let rec go node level base acc =
    match node with
    | Empty -> acc
    | Leaf { rules; _ } ->
        let acc = ref acc in
        for i = 0 to chunk - 1 do
          let r = rules.(i) in
          if r != vacant then acc := f !acc (base + i) r
        done;
        !acc
    | Inner kids ->
        let span = 1 lsl shift_of level in
        let acc = ref acc in
        for i = 0 to fan - 1 do
          acc := go kids.(i) (level - 1) (base + (i * span)) !acc
        done;
        !acc
  in
  go root levels 0 init

(* Every leaf of [node] with keys ([keyed]) or without. *)
let rec rekey ~keyed node =
  match node with
  | Empty -> Empty
  | Leaf { rules; used; _ } ->
      let keys =
        if keyed then begin
          let keys = Array.copy empty_keys in
          Array.iteri (set_key keys) rules;
          keys
        end
        else no_keys
      in
      Leaf { keys; rules; used }
  | Inner kids -> Inner (Array.map (rekey ~keyed) kids)

let index_slots t root =
  let masks, roots =
    index_of t.count (fun f -> fold_slots root t.levels () (fun () a r -> f a r))
  in
  { t with root; indexed = true; masks; roots }

(* [t]'s index with [r]'s key removed from [del] and/or inserted at
   [ins] (-1: neither), sharing all but the tuple array and one path. *)
let key_edit t (r : Rule.t) ~del ~ins =
  let lo = r.lo_value and hi = r.hi_value in
  let h = hash lo hi in
  match tuple_of t.masks r with
  | -1 ->
      {
        t with
        masks = Array.append t.masks [| r.lo_mask; r.hi_mask |];
        roots = Array.append t.roots [| insert empty_trie top_shift lo hi ins h |];
      }
  | i ->
      let root = t.roots.(i) in
      let root =
        if del < 0 then insert root top_shift lo hi ins h
        else if ins < 0 then remove root top_shift lo hi del h
        else relocate root top_shift lo hi del ins h
      in
      if is_empty root then
        {
          t with
          masks =
            Array.append
              (Array.sub t.masks 0 (2 * i))
              (Array.sub t.masks ((2 * i) + 2) (Array.length t.masks - (2 * i) - 2));
          roots = del_kid t.roots i;
        }
      else { t with roots = set_kid t.roots i root }

(* [t]'s index with [o] at [oa] replaced by [n] at [na], either of which
   may be unindexable.  A payload change that keeps the key and the
   address edits nothing, and a move of one key is one edit. *)
let reindex t o oa n na =
  let ko = indexable o and kn = indexable n in
  if ko && kn && same_key o n then
    if oa = na then t else key_edit t n ~del:oa ~ins:na
  else
    let t = if ko then key_edit t o ~del:oa ~ins:(-1) else t in
    if kn then key_edit t n ~del:(-1) ~ins:na else t

(* The next image: slots [root] (keyed as [t]'s) and [count] entries,
   with [t]'s index, which the caller edits when both images carry one.
   Crossing the cutoff builds or drops the index instead, rekeying the
   chunks to match. *)
let derive t ~root ~count =
  let next = { t with root; count; epoch = t.epoch + 1 } in
  if not t.indexed then
    if count >= index_min then index_slots next (rekey ~keyed:false root) else next
  else if 2 * count >= index_min then next
  else
    { next with root = rekey ~keyed:true root; indexed = false; masks = [||]; roots = [||] }

let of_payload ~id = function Some r -> r | None -> placeholder id
let occupied r = Bool.to_int (r != vacant)

(* [root] with slot [addr] going from [old] to [r]. *)
let set t root addr old r =
  if old == vacant && r == vacant then root
  else put ~keyed:(not t.indexed) root t.levels addr r

(* Slot [addr] holding [r] ([vacant] frees it), one epoch on. *)
let assign t addr r =
  let old = at t addr in
  if old == vacant && r == vacant then { t with epoch = t.epoch + 1 }
  else
    let next =
      derive t ~root:(set t t.root addr old r) ~count:(t.count + occupied r - occupied old)
    in
    if t.indexed && next.indexed then reindex next old addr r addr else next

let write t ~addr ~id payload = assign t addr (of_payload ~id payload)
let erase t ~addr = assign t addr vacant

(* The source's key moves to [dst] in one index edit when it is [r]'s. *)
let move t ~src ~dst ~id payload =
  if src = dst then write t ~addr:dst ~id payload
  else
    let r = of_payload ~id payload in
    let old_src = at t src and old_dst = at t dst in
    let root = set t (set t t.root src old_src vacant) dst old_dst r in
    let next =
      derive t ~root ~count:(t.count + occupied r - occupied old_src - occupied old_dst)
    in
    if t.indexed && next.indexed then
      reindex (reindex next old_dst dst vacant dst) old_src src r dst
    else next

let fill t placed payload =
  if t.count <> 0 then invalid_arg "Image.fill: image is not empty";
  let keyed = Array.length placed < index_min in
  let n = (t.size + chunk - 1) / chunk in
  let keys = Array.make n no_keys and rules = Array.make n [||] in
  let used = Array.make n 0 in
  Array.iter
    (fun (id, addr) ->
      check_addr t addr;
      let l = addr lsr chunk_bits and i = addr land (chunk - 1) in
      if used.(l) = 0 then begin
        if keyed then keys.(l) <- Array.copy empty_keys;
        rules.(l) <- Array.make chunk vacant
      end;
      if rules.(l).(i) != vacant then
        invalid_arg (Printf.sprintf "Image.fill: address 0x%x placed twice" addr);
      let r = of_payload ~id (payload id) in
      rules.(l).(i) <- r;
      if keyed then set_key keys.(l) i r;
      used.(l) <- used.(l) + 1)
    placed;
  (* Build bottom-up: one leaf per used chunk, then each level groups
     [fan] nodes of the one below until a single root remains. *)
  let rec up nodes level =
    if level = t.levels then if Array.length nodes = 0 then Empty else nodes.(0)
    else
      let m = (Array.length nodes + fan - 1) / fan in
      up
        (Array.init m (fun j ->
             let kids =
               Array.init fan (fun i ->
                   let c = (j * fan) + i in
                   if c < Array.length nodes then nodes.(c) else Empty)
             in
             if all_empty kids then Empty else Inner kids))
        (level + 1)
  in
  let leaves =
    Array.init n (fun l ->
        if used.(l) = 0 then Empty
        else Leaf { keys = keys.(l); rules = rules.(l); used = used.(l) })
  in
  let t = { t with count = Array.length placed; epoch = t.epoch + 1 } in
  if keyed then { t with root = up leaves 0 }
  else begin
    let masks, roots =
      index_of (Array.length placed) (fun f ->
          Array.iter
            (fun (_, addr) ->
              f addr rules.(addr lsr chunk_bits).(addr land (chunk - 1)))
            placed)
    in
    { t with root = up leaves 0; indexed = true; masks; roots }
  end

(* -- lookup ------------------------------------------------------------- *)

(* Descending scans returning [vacant] on a miss, so nothing is allocated
   per slot or per chunk.  Key arrays hold [4 * chunk] ints and rule
   arrays [chunk], which bounds every index below. *)
let rec scan_leaf keys rules lo hi i =
  if i < 0 then vacant
  else
    let b = i lsl 2 in
    if
      lo land Array.unsafe_get keys (b + 1) = Array.unsafe_get keys b
      && hi land Array.unsafe_get keys (b + 3) = Array.unsafe_get keys (b + 2)
    then Array.unsafe_get rules i
    else scan_leaf keys rules lo hi (i - 1)

let rec scan node lo hi =
  match node with
  | Empty -> vacant
  | Leaf { keys; rules; _ } -> scan_leaf keys rules lo hi (chunk - 1)
  | Inner kids -> scan_kids kids lo hi (fan - 1)

and scan_kids kids lo hi i =
  if i < 0 then vacant
  else
    let r = scan (Array.unsafe_get kids i) lo hi in
    if r != vacant then r else scan_kids kids lo hi (i - 1)

(* One probe per tuple: the highest address any of them answers. *)
let rec probe_tuples masks roots lo hi i best =
  if i < 0 then best
  else
    let vlo = lo land Array.unsafe_get masks (2 * i)
    and vhi = hi land Array.unsafe_get masks ((2 * i) + 1) in
    let a = probe (Array.unsafe_get roots i) top_shift vlo vhi (hash vlo vhi) in
    probe_tuples masks roots lo hi (i - 1) (if a > best then a else best)

let lookup t packet =
  let lo = Fr_tern.Header.packet_lo packet and hi = Fr_tern.Header.packet_hi packet in
  let r =
    if not t.indexed then scan t.root lo hi
    else
      let a = probe_tuples t.masks t.roots lo hi (Array.length t.roots - 1) (-1) in
      if a < 0 then vacant else find t.root (shift_of t.levels) a
  in
  if r == vacant then None else Some r

let lookup_id t packet =
  match lookup t packet with Some r -> Some r.Rule.id | None -> None

(* -- traversal ---------------------------------------------------------- *)

let fold t ~init ~f =
  fold_slots t.root t.levels init (fun acc addr r -> f acc ~addr ~rule_id:r.Rule.id)

let iter t f = fold t ~init:() ~f:(fun () ~addr ~rule_id -> f ~addr ~rule_id)

(* The first address in scan order whose occupant id satisfies [p],
   visiting chunks and their slots in descending order when [down]. *)
let find_slot ~down t p =
  let rec go node level base =
    match node with
    | Empty -> None
    | Leaf { rules; _ } ->
        let rec slot i =
          if i < 0 || i >= chunk then None
          else
            let r = rules.(i) in
            if r != vacant && p r.Rule.id then Some (base + i)
            else slot (if down then i - 1 else i + 1)
        in
        slot (if down then chunk - 1 else 0)
    | Inner kids ->
        let span = 1 lsl shift_of level in
        let rec kid i =
          if i < 0 || i >= fan then None
          else
            match go kids.(i) (level - 1) (base + (i * span)) with
            | Some _ as found -> found
            | None -> kid (if down then i - 1 else i + 1)
        in
        kid (if down then fan - 1 else 0)
  in
  go t.root t.levels 0

let find_first t p = find_slot ~down:false t p
let find_last t p = find_slot ~down:true t p

let entries t =
  fold_slots t.root t.levels [] (fun acc addr r ->
      if is_bound r then (addr, r) :: acc else acc)
  |> List.rev |> Array.of_list

let pp ppf t =
  Format.fprintf ppf "epoch %d, %d entries@." t.epoch t.count;
  iter t (fun ~addr ~rule_id -> Format.fprintf ppf "0x%x: %d@." addr rule_id)
