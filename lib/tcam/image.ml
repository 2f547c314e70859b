module Rule = Fr_tern.Rule
module Ternary = Fr_tern.Ternary

type slot = Free | Used of int

(* Slots live in leaves of [chunk] slots under [fan]-way interior nodes.
   A chunk holds each slot's payload and its match key, four unboxed ints
   per slot copied from the rule's own key ([lo_value] .. [hi_mask] of
   [Rule.t]).  An empty subtree is the constant [Empty], so free space
   costs one word per interior pointer and the lookup scan skips it. *)
let chunk_bits = 4
let chunk = 1 lsl chunk_bits
let fan_bits = 5
let fan = 1 lsl fan_bits

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
}

(* A placed id whose payload is not bound carries a payload with this
   field; it and [vacant] (the free slot) get a key no packet matches. *)
let hollow = Ternary.any 1
let placeholder id = Rule.make ~id ~field:hollow ~action:Rule.Drop ~priority:0
let vacant = placeholder (-1)
let is_bound (r : Rule.t) = r.Rule.field != hollow

(* [lo land m = v] fails for any [lo] when [v] is negative. *)
let never = min_int
let empty_keys = Array.init (4 * chunk) (fun j -> if j land 3 = 0 then never else 0)

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
  { root = Empty; levels = levels_for size chunk; size; count = 0; epoch = 0 }

let empty = create ~size:0
let epoch t = t.epoch
let size t = t.size
let entry_count t = t.count
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

let payload t addr =
  check_addr t addr;
  find t.root (shift_of t.levels) addr

let read t addr =
  let r = payload t addr in
  if r == vacant then Free else Used r.Rule.id

let is_free t addr = payload t addr == vacant

let rule_at t addr =
  let r = payload t addr in
  if is_bound r then Some r else None

let all_empty kids =
  let rec go i = i < 0 || (kids.(i) == Empty && go (i - 1)) in
  go (fan - 1)

(* The node with slot [addr] holding [r] ([vacant] frees it): copies the
   leaf and the interior nodes on its path, shares everything else, and
   collapses subtrees left without entries back to [Empty]. *)
let rec put node level addr r =
  if level = 0 then begin
    let keys, rules, used =
      match node with
      | Leaf { keys; rules; used } -> (Array.copy keys, Array.copy rules, used)
      | Empty -> (Array.copy empty_keys, Array.make chunk vacant, 0)
      | Inner _ -> assert false
    in
    let i = addr land (chunk - 1) in
    let used =
      used + Bool.to_int (r != vacant) - Bool.to_int (rules.(i) != vacant)
    in
    rules.(i) <- r;
    set_key keys i r;
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
    kids.(i) <- put kids.(i) (level - 1) addr r;
    if kids.(i) == Empty && all_empty kids then Empty else Inner kids
  end

(* [t] with slot [addr] holding [r], same epoch. *)
let set t addr r =
  let old = payload t addr in
  if old == vacant && r == vacant then t
  else
    {
      t with
      root = put t.root t.levels addr r;
      count = t.count + Bool.to_int (r != vacant) - Bool.to_int (old != vacant);
    }

let touch t = { t with epoch = t.epoch + 1 }
let of_payload ~id = function Some r -> r | None -> placeholder id
let write t ~addr ~id payload = touch (set t addr (of_payload ~id payload))

let move t ~src ~dst ~id payload =
  touch (set (set t src vacant) dst (of_payload ~id payload))

let erase t ~addr = touch (set t addr vacant)

let fill t placed payload =
  if t.count <> 0 then invalid_arg "Image.fill: image is not empty";
  let n = (t.size + chunk - 1) / chunk in
  let keys = Array.make n [||] and rules = Array.make n [||] in
  let used = Array.make n 0 in
  Array.iter
    (fun (id, addr) ->
      check_addr t addr;
      let l = addr lsr chunk_bits and i = addr land (chunk - 1) in
      if used.(l) = 0 then begin
        keys.(l) <- Array.copy empty_keys;
        rules.(l) <- Array.make chunk vacant
      end;
      if rules.(l).(i) != vacant then
        invalid_arg (Printf.sprintf "Image.fill: address 0x%x placed twice" addr);
      let r = of_payload ~id (payload id) in
      rules.(l).(i) <- r;
      set_key keys.(l) i r;
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
  { t with root = up leaves 0; count = Array.length placed; epoch = t.epoch + 1 }

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

let lookup t packet =
  let r =
    scan t.root (Fr_tern.Header.packet_lo packet) (Fr_tern.Header.packet_hi packet)
  in
  if r == vacant then None else Some r

let lookup_id t packet =
  match lookup t packet with Some r -> Some r.Rule.id | None -> None

(* -- traversal ---------------------------------------------------------- *)

let fold_slots t ~init ~f =
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
  go t.root t.levels 0 init

let fold t ~init ~f =
  fold_slots t ~init ~f:(fun acc addr r -> f acc ~addr ~rule_id:r.Rule.id)

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
  fold_slots t ~init:[] ~f:(fun acc addr r ->
      if is_bound r then (addr, r) :: acc else acc)
  |> List.rev |> Array.of_list

let pp ppf t =
  Format.fprintf ppf "epoch %d, %d entries@." t.epoch t.count;
  iter t (fun ~addr ~rule_id -> Format.fprintf ppf "0x%x: %d@." addr rule_id)
