module Ternary = Fr_tern.Ternary
module Header = Fr_tern.Header
module Rule = Fr_tern.Rule
module Rng = Fr_prng.Rng

type flow = {
  flow_id : int;
  dst_value : int64;
  plen : int;
  path : int list;
  waypoint : int option;
}

type t = flow list

let ingress f = List.hd f.path
let egress f = List.nth f.path (List.length f.path - 1)

let ip_mask = 0xFFFF_FFFFL

let prefix_bits ~plen v =
  Int64.shift_right_logical (Int64.logand v ip_mask) (32 - plen)

let in_prefix ~plen ~value dst = prefix_bits ~plen value = prefix_bits ~plen dst

let dst_field f = Ternary.prefix_of_int64 ~width:32 ~plen:f.plen f.dst_value

let rule_id ~flow_id ~version = (2 * flow_id) + version

let rule f ~version ~port =
  let field =
    Header.pack
      {
        src_ip = Ternary.any 32;
        dst_ip = dst_field f;
        src_port = Ternary.any 16;
        dst_port = Ternary.any 16;
        proto = Ternary.exact_of_int64 ~width:8 (Int64.of_int version);
      }
  in
  Rule.make
    ~id:(rule_id ~flow_id:f.flow_id ~version)
    ~field ~action:(Forward port) ~priority:f.plen

let hop_rules topo f ~version =
  let rec hops = function
    | [] -> []
    | [ last ] -> [ (last, rule f ~version ~port:Topo.host_port) ]
    | u :: (v :: _ as rest) -> (
        match Topo.port_to topo ~src:u ~dst:v with
        | None ->
            invalid_arg
              (Printf.sprintf "Policy.hop_rules: flow %d hops %d -> %d unlinked"
                 f.flow_id u v)
        | Some port -> (u, rule f ~version ~port) :: hops rest)
  in
  hops f.path

let stamp_packet (pkt : Header.packet) ~version = { pkt with p_proto = version }

let packet_for ?(tries = 64) rng ~all f =
  let suffix_width = 32 - f.plen in
  let suffix_mask =
    if suffix_width = 0 then 0L
    else Int64.sub (Int64.shift_left 1L suffix_width) 1L
  in
  let base = Int64.logand f.dst_value (Int64.logxor ip_mask suffix_mask) in
  let longer =
    List.filter (fun g -> g.plen > f.plen) all
  in
  let rec attempt k =
    if k <= 0 then None
    else
      let dst = Int64.logor base (Int64.logand (Rng.bits64 rng) suffix_mask) in
      if List.exists (fun g -> in_prefix ~plen:g.plen ~value:g.dst_value dst) longer
      then attempt (k - 1)
      else
        Some
          {
            Header.p_src_ip = Int64.logand (Rng.bits64 rng) ip_mask;
            p_dst_ip = dst;
            p_src_port = Rng.int_in rng 0 65535;
            p_dst_port = Rng.int_in rng 0 65535;
            p_proto = 0;
          }
  in
  attempt tries

let winner all (pkt : Header.packet) =
  List.fold_left
    (fun best g ->
      if in_prefix ~plen:g.plen ~value:g.dst_value pkt.Header.p_dst_ip then
        match best with
        | Some b when b.plen > g.plen -> best
        | Some b when b.plen = g.plen && b.flow_id < g.flow_id -> best
        | _ -> Some g
      else best)
    None all

let find all id = List.find_opt (fun f -> f.flow_id = id) all

let check topo policy =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  (* Flows by id and by prefix, each bucket in policy order with its
     position, so a clash is found without comparing every pair. *)
  let prefix_key f = (f.plen, prefix_bits ~plen:f.plen f.dst_value) in
  let by_id = Hashtbl.create 64 and by_prefix = Hashtbl.create 64 in
  let push tbl k entry =
    Hashtbl.replace tbl k (entry :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
  in
  List.iteri
    (fun i f ->
      push by_id f.flow_id (i, f);
      push by_prefix (prefix_key f) (i, f))
    policy;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) by_id;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) by_prefix;
  let first_other tbl k f =
    List.find_opt (fun (_, g) -> g != f) (Hashtbl.find tbl k)
  in
  let rec each = function
    | [] -> Ok ()
    | f :: rest ->
        let* () =
          if f.flow_id < 0 then err "flow id %d negative" f.flow_id else Ok ()
        in
        let* () =
          if f.plen < 1 || f.plen > 32 then
            err "flow %d: plen %d out of 1..32" f.flow_id f.plen
          else Ok ()
        in
        let* () =
          if List.length f.path < 2 then
            err "flow %d: path shorter than 2 hops" f.flow_id
          else Ok ()
        in
        let* () =
          if
            List.exists (fun u -> u < 0 || u >= Topo.nodes topo) f.path
          then err "flow %d: path node out of range" f.flow_id
          else Ok ()
        in
        let* () =
          if List.length (List.sort_uniq compare f.path) <> List.length f.path
          then err "flow %d: path is not simple" f.flow_id
          else Ok ()
        in
        let rec linked = function
          | u :: (v :: _ as more) ->
              if Topo.port_to topo ~src:u ~dst:v = None then
                err "flow %d: hop %d -> %d is not a link" f.flow_id u v
              else linked more
          | _ -> Ok ()
        in
        let* () = linked f.path in
        let* () =
          match f.waypoint with
          | Some w when not (List.mem w f.path) ->
              err "flow %d: waypoint %d not on path" f.flow_id w
          | _ -> Ok ()
        in
        let* () =
          (* The first other flow in policy order that shares the id or
             the prefix. *)
          let clash =
            match (first_other by_id f.flow_id f, first_other by_prefix (prefix_key f) f) with
            | Some (i, g), Some (j, h) -> Some (if i <= j then g else h)
            | Some (_, g), None | None, Some (_, g) -> Some g
            | None, None -> None
          in
          match clash with
          | Some g ->
              if g.flow_id = f.flow_id then err "duplicate flow id %d" f.flow_id
              else
                err "flows %d and %d share prefix %Ld/%d" f.flow_id g.flow_id
                  f.dst_value f.plen
          | None -> Ok ()
        in
        each rest
  in
  each policy

let pp_flow ppf f =
  Format.fprintf ppf "flow %d dst=%Ld/%d path=[%s]%s" f.flow_id f.dst_value
    f.plen
    (String.concat "-" (List.map string_of_int f.path))
    (match f.waypoint with
    | None -> ""
    | Some w -> Printf.sprintf " via %d" w)
