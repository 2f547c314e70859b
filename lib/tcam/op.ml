type t = Insert of { rule_id : int; addr : int } | Delete of { addr : int }

let insert ~rule_id ~addr = Insert { rule_id; addr }
let delete ~addr = Delete { addr }

let addr = function Insert { addr; _ } -> addr | Delete { addr } -> addr

let equal a b =
  match (a, b) with
  | Insert a, Insert b -> a.rule_id = b.rule_id && a.addr = b.addr
  | Delete a, Delete b -> a.addr = b.addr
  | (Insert _ | Delete _), _ -> false

let pp ppf = function
  | Insert { rule_id; addr } -> Format.fprintf ppf "(I,%d,0x%x)" rule_id addr
  | Delete { addr } -> Format.fprintf ppf "(D,0x%x)" addr

let pp_sequence ppf ops =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",") pp
    ppf ops
