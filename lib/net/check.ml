module Agent = Fr_switch.Agent
module Rule = Fr_tern.Rule
module Header = Fr_tern.Header
module Rng = Fr_prng.Rng

module Model = struct
  type t = { topo : Topo.t; tables : (int, Rule.t) Hashtbl.t array }

  let create topo =
    { topo; tables = Array.init (Topo.nodes topo) (fun _ -> Hashtbl.create 32) }

  let table t node =
    if node < 0 || node >= Array.length t.tables then
      invalid_arg "Check.Model: node out of range";
    t.tables.(node)

  let apply t node (m : Agent.flow_mod) =
    let tbl = table t node in
    match m with
    | Add r ->
        if Hashtbl.mem tbl r.id then
          invalid_arg
            (Printf.sprintf "Check.Model: duplicate add of rule %d at node %d"
               r.id node);
        Hashtbl.replace tbl r.id r
    | Set_action { id; action } -> (
        match Hashtbl.find_opt tbl id with
        | None ->
            invalid_arg
              (Printf.sprintf "Check.Model: set_action of missing rule %d" id)
        | Some r -> Hashtbl.replace tbl id (Rule.with_action r action))
    | Remove { id } ->
        if not (Hashtbl.mem tbl id) then
          invalid_arg
            (Printf.sprintf "Check.Model: remove of missing rule %d at node %d"
               id node);
        Hashtbl.remove tbl id

  let lookup t node pkt =
    Hashtbl.fold
      (fun _ (r : Rule.t) best ->
        if Rule.matches_packet r pkt then
          match best with
          | Some (b : Rule.t)
            when b.priority > r.priority
                 || (b.priority = r.priority && b.id < r.id) ->
              best
          | _ -> Some r
        else best)
      (table t node) None

  let rules t node =
    Hashtbl.fold (fun _ r acc -> r :: acc) (table t node) []
    |> List.sort (fun (a : Rule.t) b -> compare a.id b.id)

  let of_policy topo ~version_of policy =
    let t = create topo in
    List.iter
      (fun f ->
        List.iter
          (fun (node, r) -> apply t node (Agent.Add r))
          (Policy.hop_rules topo f ~version:(version_of f)))
      policy;
    t
end

type outcome = Delivered of int | Dropped of int | Missing of int | Looped

let outcome_to_string = function
  | Delivered n -> Printf.sprintf "delivered@%d" n
  | Dropped n -> Printf.sprintf "dropped@%d" n
  | Missing n -> Printf.sprintf "no-rule@%d" n
  | Looped -> "looped"

let trace topo ~lookup ~ingress pkt =
  let budget = (2 * Topo.nodes topo) + 2 in
  let rec walk node visited fuel =
    let visited = node :: visited in
    if fuel <= 0 then (List.rev visited, Looped)
    else
      match lookup node pkt with
      | None -> (List.rev visited, Missing node)
      | Some (r : Rule.t) -> (
          match r.action with
          | Drop | Controller -> (List.rev visited, Dropped node)
          | Forward port -> (
              if port = Topo.host_port then (List.rev visited, Delivered node)
              else
                match Topo.next_hop topo ~node ~port with
                | None -> (List.rev visited, Missing node)
                | Some next -> walk next visited (fuel - 1)))
  in
  walk ingress [] budget

let expectations plan =
  let stamps = Plan.stamps_before plan in
  let old_p = Plan.old_policy plan and new_p = Plan.new_policy plan in
  let olds =
    List.map
      (fun (f : Policy.flow) -> ((f.flow_id, List.assoc f.flow_id stamps), f))
      old_p
  in
  let news =
    List.filter_map
      (fun (f : Policy.flow) ->
        match List.assoc_opt f.flow_id (Plan.stamps_after plan) with
        | Some v when not (List.mem_assoc (f.flow_id, v) olds) ->
            Some ((f.flow_id, v), f)
        | _ -> None)
      new_p
  in
  olds @ news

let consistent ?(samples = 2) ~rng plan ~stamps ~lookup ~where =
  let topo = Plan.topo plan in
  let expects = expectations plan in
  let space = Plan.old_policy plan @ Plan.new_policy plan in
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun ((fid, version), (f : Policy.flow)) ->
      if stamps fid = Some version then
        for _ = 1 to samples do
          match Policy.packet_for rng ~all:space f with
          | None -> () (* prefix saturated by nested prefixes; skip *)
          | Some pkt ->
              let pkt = Policy.stamp_packet pkt ~version in
              let visited, outcome =
                trace topo ~lookup ~ingress:(Policy.ingress f) pkt
              in
              if visited <> f.path then
                bad
                  "%s: flow %d v%d took [%s], configured [%s] (%s)" where fid
                  version
                  (String.concat "-" (List.map string_of_int visited))
                  (String.concat "-" (List.map string_of_int f.path))
                  (outcome_to_string outcome)
              else begin
                (match outcome with
                | Delivered n when n = Policy.egress f -> ()
                | o ->
                    bad "%s: flow %d v%d ended %s, expected delivery at %d"
                      where fid version (outcome_to_string o) (Policy.egress f));
                match f.waypoint with
                | Some w when not (List.mem w visited) ->
                    bad "%s: flow %d v%d bypassed waypoint %d" where fid version
                      w
                | _ -> ()
              end
        done)
    expects;
  List.rev !violations

let check_plan ?(samples = 2) ?(seed = 7) plan =
  let topo = Plan.topo plan in
  let rng = Rng.create ~seed in
  let stamp_tbl = Hashtbl.create 16 in
  List.iter
    (fun (fid, v) -> Hashtbl.replace stamp_tbl fid v)
    (Plan.stamps_before plan);
  let model =
    Model.of_policy topo
      ~version_of:(fun f ->
        List.assoc f.flow_id (Plan.stamps_before plan))
      (Plan.old_policy plan)
  in
  let violations = ref [] in
  let probe where =
    violations :=
      !violations
      @ consistent ~samples ~rng plan
          ~stamps:(Hashtbl.find_opt stamp_tbl)
          ~lookup:(Model.lookup model) ~where
  in
  probe "initial";
  List.iter
    (fun (r : Plan.round) ->
      List.iter
        (fun (node, mods) ->
          List.iter (Model.apply model node) mods;
          probe (Printf.sprintf "round %d after node %d" r.index node))
        r.batches;
      List.iter
        (fun (fid, v) ->
          (match v with
          | Some v -> Hashtbl.replace stamp_tbl fid v
          | None -> Hashtbl.remove stamp_tbl fid);
          probe (Printf.sprintf "round %d after flip of flow %d" r.index fid))
        r.stamp_changes)
    (Plan.rounds plan);
  probe "final";
  let reference =
    Model.of_policy topo
      ~version_of:(fun f -> List.assoc f.flow_id (Plan.stamps_after plan))
      (Plan.new_policy plan)
  in
  for node = 0 to Topo.nodes topo - 1 do
    let got = Model.rules model node and want = Model.rules reference node in
    if got <> want then
      violations :=
        !violations
        @ [
            Printf.sprintf
              "final: node %d holds %d rules [%s], reference %d [%s]" node
              (List.length got)
              (String.concat ","
                 (List.map (fun (r : Rule.t) -> string_of_int r.id) got))
              (List.length want)
              (String.concat ","
                 (List.map (fun (r : Rule.t) -> string_of_int r.id) want));
          ]
  done;
  match !violations with [] -> Ok () | vs -> Error vs
