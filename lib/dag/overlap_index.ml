module Rule = Fr_tern.Rule
module Ternary = Fr_tern.Ternary

(* A 104-bit 5-tuple field (Fr_tern.Header) packs src_ip at bit positions
   72..103, dst_ip at 40..71 and the ports and protocol below.  A rule's
   key (Rule.t's [lo_value] .. [hi_mask]) holds it as value and care mask
   of the low and high 62-bit halves: dst_ip is bits 40..71 of the field,
   src_ip bits 10..41 of the high half.

   Entries are filed in a path-compressed binary trie on the leading cared
   prefix of dst_ip.  A node holds the rules whose destination prefix is
   exactly its own, in an array sized to its contents.  The trie's
   ancestors of a query prefix are the nodes on its search path and its
   descendants are the subtree below, so a walk reaches only
   destination-compatible entries; the source prefix and the full overlap
   test are then checked on the keys. *)

let full_width = Fr_tern.Header.total_width
let ip_mask = 0xFFFF_FFFF

type node =
  | Nil
  | Node of {
      plen : int;
      pval : int;  (* left-aligned in 32 bits, zero past [plen] *)
      mutable zero : node;
      mutable one : node;
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

let dst_value (r : Rule.t) = ((r.lo_value lsr 40) lor (r.hi_value lsl 22)) land ip_mask
let dst_mask (r : Rule.t) = ((r.lo_mask lsr 40) lor (r.hi_mask lsl 22)) land ip_mask

let dst_prefix r =
  let plen = prefix_len (dst_mask r) in
  (plen, dst_value r land prefix_mask.(plen))

let src_value (r : Rule.t) = (r.hi_value lsr 10) land ip_mask
let src_prefix (r : Rule.t) = prefix_mask.(prefix_len ((r.hi_mask lsr 10) land ip_mask))

let is_tuple (r : Rule.t) = Ternary.width r.Rule.field = full_width

(* --- the trie ---------------------------------------------------------- *)

let leaf ~plen ~pval r = Node { plen; pval; zero = Nil; one = Nil; rules = [| r |] }

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
let rec insert t n ~plen ~pval r =
  match n with
  | Nil ->
      t.count <- t.count + 1;
      leaf ~plen ~pval r
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
            nd.rules <- Array.append nd.rules [| r |]
        | i -> nd.rules.(i) <- r);
        n
      end
      else if c = nd.plen then begin
        if bit pval c = 0 then nd.zero <- insert t nd.zero ~plen ~pval r
        else nd.one <- insert t nd.one ~plen ~pval r;
        n
      end
      else begin
        t.count <- t.count + 1;
        let fresh = leaf ~plen ~pval r in
        if c = plen then begin
          set_child fresh (bit nd.pval c) n;
          fresh
        end
        else begin
          let fork =
            Node
              { plen = c; pval = pval land prefix_mask.(c); zero = Nil; one = Nil;
                rules = [||] }
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
            nd.rules <-
              Array.init (Array.length nd.rules - 1) (fun j ->
                  nd.rules.(if j < i then j else j + 1));
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

(* [f r] on every entry of the subtree. *)
let rec subtree n f =
  match n with
  | Nil -> ()
  | Node nd ->
      Array.iter f nd.rules;
      subtree nd.zero f;
      subtree nd.one f

(* [f r] on every entry whose destination prefix is an ancestor of,
   equal to or a descendant of [qval/qlen]. *)
let rec walk n ~qlen ~qval f =
  match n with
  | Nil -> ()
  | Node nd ->
      if nd.plen <= qlen then begin
        if (qval lxor nd.pval) land prefix_mask.(nd.plen) = 0 then begin
          Array.iter f nd.rules;
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
    let plen, pval = dst_prefix r in
    t.root <- insert t t.root ~plen ~pval r
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
    let plen, pval = dst_prefix r in
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
    let qlen, qval = dst_prefix q in
    let qsrc = src_value q and qsp = src_prefix q in
    walk t.root ~qlen ~qval (fun r ->
        if (src_value r lxor qsrc) land qsp land src_prefix r = 0 then f r)
  end
  else List.iter (fun o -> if same_width q o then f o) t.others

(* Overlap on the keys implies compatible source prefixes, so this walk
   needs no separate source test. *)
let iter_overlapping t q f =
  let id = q.Rule.id in
  if is_tuple q then begin
    let qlen, qval = dst_prefix q in
    walk t.root ~qlen ~qval (fun (r : Rule.t) ->
        if
          (r.lo_value lxor q.lo_value) land r.lo_mask land q.lo_mask = 0
          && (r.hi_value lxor q.hi_value) land r.hi_mask land q.hi_mask = 0
          && r.id <> id
        then f r)
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
