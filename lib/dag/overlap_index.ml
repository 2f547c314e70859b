module Rule = Fr_tern.Rule
module Ternary = Fr_tern.Ternary

(* A 104-bit 5-tuple field (Fr_tern.Header) packs src_ip at bit positions
   72..103, dst_ip at 40..71 and the ports and protocol below.  An entry
   keeps it as four unboxed ints, value and care mask of the low and high
   62-bit halves (the same split as Fr_tcam.Image): dst_ip is bits 40..71
   of the field, src_ip bits 10..41 of the high half.

   Entries are filed in a path-compressed binary trie on the leading cared
   prefix of dst_ip.  A node holds the entries whose destination prefix is
   exactly its own, in two arrays sized to their contents.  The trie's
   ancestors of a query prefix are the nodes on its search path and its
   descendants are the subtree below, so a walk reaches only
   destination-compatible entries; the source prefix and the full overlap
   test are then checked on the flat ints. *)

let full_width = Fr_tern.Header.total_width
let ip_mask = 0xFFFF_FFFF
let lo_mask = (1 lsl 62) - 1

type node =
  | Nil
  | Node of {
      plen : int;
      pval : int;  (* left-aligned in 32 bits, zero past [plen] *)
      mutable zero : node;
      mutable one : node;
      mutable keys : int array;  (* 4 per entry: lo value, lo mask, hi value, hi mask *)
      mutable rules : Rule.t array;
    }

type t = {
  mutable root : node;
  mutable others : Rule.t list;  (* fields that are not 5-tuples *)
  mutable count : int;
}

let create () = { root = Nil; others = []; count = 0 }
let length t = t.count

let prefix_mask = Array.init 33 (fun l -> (ip_mask lsl (32 - l)) land ip_mask)
let bit v i = (v lsr (31 - i)) land 1

(* Leading zeros of a 32-bit value (32 for 0), by halving. *)
let clz32 x =
  if x = 0 then 32
  else begin
    let n = ref 0 and x = ref x in
    if !x land 0xFFFF_0000 = 0 then (n := !n + 16; x := !x lsl 16);
    if !x land 0xFF00_0000 = 0 then (n := !n + 8; x := !x lsl 8);
    if !x land 0xF000_0000 = 0 then (n := !n + 4; x := !x lsl 4);
    if !x land 0xC000_0000 = 0 then (n := !n + 2; x := !x lsl 2);
    if !x land 0x8000_0000 = 0 then incr n;
    !n
  end

(* Length of the leading cared prefix of a 32-bit care mask. *)
let prefix_len m = clz32 (lnot m land ip_mask)

let keys_of (r : Rule.t) =
  let v, m = Ternary.unsafe_chunks r.Rule.field in
  let lo c = Int64.to_int c land lo_mask in
  let hi c0 c1 =
    (Int64.to_int (Int64.shift_right_logical c0 62) lor (Int64.to_int c1 lsl 2))
    land lo_mask
  in
  [| lo v.(0); lo m.(0); hi v.(0) v.(1); hi m.(0) m.(1) |]

let dst_value k = ((k.(0) lsr 40) lor (k.(2) lsl 22)) land ip_mask
let dst_mask k = ((k.(1) lsr 40) lor (k.(3) lsl 22)) land ip_mask
let dst_prefix k =
  let plen = prefix_len (dst_mask k) in
  (plen, dst_value k land prefix_mask.(plen))

let src_value hv = (hv lsr 10) land ip_mask
let src_prefix hm = prefix_mask.(prefix_len ((hm lsr 10) land ip_mask))

let is_tuple (r : Rule.t) = Ternary.width r.Rule.field = full_width

(* --- the trie ---------------------------------------------------------- *)

let leaf ~plen ~pval keys r =
  Node { plen; pval; zero = Nil; one = Nil; keys; rules = [| r |] }

let find_entry rules id =
  let rec go i =
    if i >= Array.length rules then -1
    else if rules.(i).Rule.id = id then i
    else go (i + 1)
  in
  go 0

let set_child n b c =
  match n with
  | Node nd -> if b = 0 then nd.zero <- c else nd.one <- c
  | Nil -> assert false

(* The node to store where [n] was, with the entry filed at [pval/plen]. *)
let rec insert t n ~plen ~pval keys r =
  match n with
  | Nil ->
      t.count <- t.count + 1;
      leaf ~plen ~pval keys r
  | Node nd ->
      let c =
        let l = min plen nd.plen in
        if (pval lxor nd.pval) land prefix_mask.(l) = 0 then l
        else clz32 (pval lxor nd.pval)
      in
      if c = nd.plen && c = plen then begin
        (match find_entry nd.rules r.Rule.id with
        | -1 ->
            t.count <- t.count + 1;
            nd.keys <- Array.append nd.keys keys;
            nd.rules <- Array.append nd.rules [| r |]
        | i -> nd.rules.(i) <- r);
        n
      end
      else if c = nd.plen then begin
        if bit pval c = 0 then nd.zero <- insert t nd.zero ~plen ~pval keys r
        else nd.one <- insert t nd.one ~plen ~pval keys r;
        n
      end
      else begin
        t.count <- t.count + 1;
        let fresh = leaf ~plen ~pval keys r in
        if c = plen then begin
          set_child fresh (bit nd.pval c) n;
          fresh
        end
        else begin
          let fork =
            Node
              { plen = c; pval = pval land prefix_mask.(c); zero = Nil; one = Nil;
                keys = [||]; rules = [||] }
          in
          set_child fork (bit pval c) fresh;
          set_child fork (bit nd.pval c) n;
          fork
        end
      end

(* A node without entries is kept only while it forks two subtrees. *)
let prune n =
  match n with
  | Node { rules = [||]; zero; one; _ } -> (
      match (zero, one) with Nil, c | c, Nil -> c | _ -> n)
  | _ -> n

let rec delete t n ~plen ~pval id =
  match n with
  | Nil -> Nil
  | Node nd ->
      if nd.plen = plen && nd.pval = pval then begin
        (match find_entry nd.rules id with
        | -1 -> ()
        | i ->
            let k = Array.length nd.rules - 1 in
            let drop a w =
              Array.init (w * k) (fun j -> if j < w * i then a.(j) else a.(j + w))
            in
            nd.keys <- drop nd.keys 4;
            nd.rules <- drop nd.rules 1;
            t.count <- t.count - 1);
        prune n
      end
      else if nd.plen < plen && (pval lxor nd.pval) land prefix_mask.(nd.plen) = 0
      then begin
        if bit pval nd.plen = 0 then nd.zero <- delete t nd.zero ~plen ~pval id
        else nd.one <- delete t nd.one ~plen ~pval id;
        prune n
      end
      else n

(* [f keys i rules] on every entry of the subtree. *)
let rec subtree n f =
  match n with
  | Nil -> ()
  | Node nd ->
      for i = 0 to Array.length nd.rules - 1 do
        f nd.keys i nd.rules
      done;
      subtree nd.zero f;
      subtree nd.one f

(* [f keys i rules] on every entry whose destination prefix is an
   ancestor of, equal to or a descendant of [qval/qlen]. *)
let rec walk n ~qlen ~qval f =
  match n with
  | Nil -> ()
  | Node nd ->
      if nd.plen <= qlen then begin
        if (qval lxor nd.pval) land prefix_mask.(nd.plen) = 0 then begin
          for i = 0 to Array.length nd.rules - 1 do
            f nd.keys i nd.rules
          done;
          if nd.plen = qlen then begin
            subtree nd.zero f;
            subtree nd.one f
          end
          else walk (if bit qval nd.plen = 0 then nd.zero else nd.one) ~qlen ~qval f
        end
      end
      else if (qval lxor nd.pval) land prefix_mask.(qlen) = 0 then subtree n f

(* --- the interface ----------------------------------------------------- *)

let add t r =
  if is_tuple r then begin
    let keys = keys_of r in
    let plen, pval = dst_prefix keys in
    t.root <- insert t t.root ~plen ~pval keys r
  end
  else if List.exists (fun (o : Rule.t) -> o.Rule.id = r.Rule.id) t.others then
    t.others <-
      List.map (fun (o : Rule.t) -> if o.Rule.id = r.Rule.id then r else o) t.others
  else begin
    t.others <- r :: t.others;
    t.count <- t.count + 1
  end

let remove t r =
  if is_tuple r then begin
    let plen, pval = dst_prefix (keys_of r) in
    t.root <- delete t t.root ~plen ~pval r.Rule.id
  end
  else begin
    let kept = List.filter (fun (o : Rule.t) -> o.Rule.id <> r.Rule.id) t.others in
    t.count <- t.count - (List.length t.others - List.length kept);
    t.others <- kept
  end

let same_width (q : Rule.t) (o : Rule.t) =
  Ternary.width o.Rule.field = Ternary.width q.Rule.field

let iter_candidates t q f =
  if is_tuple q then begin
    let qk = keys_of q in
    let qlen, qval = dst_prefix qk in
    let qsrc = src_value qk.(2) and qsp = src_prefix qk.(3) in
    walk t.root ~qlen ~qval (fun keys i rules ->
        let b = 4 * i in
        let sp = src_prefix (Array.unsafe_get keys (b + 3)) in
        if (src_value (Array.unsafe_get keys (b + 2)) lxor qsrc) land qsp land sp = 0
        then f rules.(i))
  end
  else List.iter (fun o -> if same_width q o then f o) t.others

(* Overlap on the flat keys implies compatible source prefixes, so this
   walk needs no separate source test. *)
let iter_overlapping t q f =
  let id = q.Rule.id in
  if is_tuple q then begin
    let qk = keys_of q in
    let qlen, qval = dst_prefix qk in
    let v0 = qk.(0) and m0 = qk.(1) and v1 = qk.(2) and m1 = qk.(3) in
    walk t.root ~qlen ~qval (fun keys i rules ->
        let b = 4 * i in
        if
          (Array.unsafe_get keys b lxor v0) land Array.unsafe_get keys (b + 1) land m0 = 0
          && (Array.unsafe_get keys (b + 2) lxor v1) land Array.unsafe_get keys (b + 3) land m1
             = 0
        then begin
          let r = rules.(i) in
          if r.Rule.id <> id then f r
        end)
  end
  else
    List.iter
      (fun (o : Rule.t) ->
        if o.Rule.id <> id && same_width q o && Rule.overlaps q o then f o)
      t.others

let overlapping t q =
  let acc = ref [] in
  iter_overlapping t q (fun r -> acc := r :: !acc);
  !acc

let candidate_count t q =
  let n = ref 0 in
  iter_candidates t q (fun r -> if r.Rule.id <> q.Rule.id then incr n);
  !n
