type action = Forward of int | Drop | Controller

type t = {
  id : int;
  field : Ternary.t;
  action : action;
  priority : int;
  lo_value : int;
  lo_mask : int;
  hi_value : int;
  hi_mask : int;
}

let never = min_int
let half_mask = (1 lsl 62) - 1
let lo_half c = Int64.to_int c land half_mask

let hi_half c0 c1 =
  (Int64.to_int (Int64.shift_right_logical c0 62) lor (Int64.to_int c1 lsl 2))
  land half_mask

let make ~id ~field ~action ~priority =
  let v, m = Ternary.unsafe_chunks field in
  let get a k = if k < Array.length a then a.(k) else 0L in
  let v0 = get v 0 and v1 = get v 1 in
  let m0 = get m 0 and m1 = get m 1 in
  (* Packets are 104 bits wide, so a position from 124 up is always 0: a
     field requiring a 1 there matches nothing, and the halves cover every
     other position exactly. *)
  let beyond = ref (Int64.shift_right_logical v1 60 <> 0L) in
  for k = 2 to Array.length v - 1 do
    if v.(k) <> 0L then beyond := true
  done;
  {
    id;
    field;
    action;
    priority;
    lo_value = (if !beyond then never else lo_half v0);
    lo_mask = lo_half m0;
    hi_value = hi_half v0 v1;
    hi_mask = hi_half m0 m1;
  }

let with_action r action = { r with action }

let overlaps a b = Ternary.overlaps a.field b.field
let subsumes a b = Ternary.subsumes a.field b.field

let matches_packet r p =
  Header.packet_lo p land r.lo_mask = r.lo_value
  && Header.packet_hi p land r.hi_mask = r.hi_value

let equal_action a b =
  match (a, b) with
  | Forward p, Forward q -> p = q
  | Drop, Drop -> true
  | Controller, Controller -> true
  | (Forward _ | Drop | Controller), _ -> false

let conflicts a b = overlaps a b && not (equal_action a.action b.action)

let pp_action ppf = function
  | Forward p -> Format.fprintf ppf "fwd(%d)" p
  | Drop -> Format.pp_print_string ppf "drop"
  | Controller -> Format.pp_print_string ppf "ctrl"

let pp ppf r =
  Format.fprintf ppf "#%d[prio=%d %a -> %a]" r.id r.priority Ternary.pp r.field
    pp_action r.action

module Id_set = Set.Make (Int)
module Id_map = Map.Make (Int)
