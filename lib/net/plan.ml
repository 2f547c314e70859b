module Agent = Fr_switch.Agent

type kind = Install | Flip | Uninstall

let kind_to_string = function
  | Install -> "install"
  | Flip -> "flip"
  | Uninstall -> "uninstall"

type round = {
  index : int;
  kind : kind;
  batches : (int * Agent.flow_mod list) list;
  stamp_changes : (int * int option) list;
}

type t = {
  topo : Topo.t;
  old_policy : Policy.t;
  new_policy : Policy.t;
  batch : int;
  stamps_before : (int * int) list;
  stamps_after : (int * int) list;
  rounds : round list;
}

let topo t = t.topo
let old_policy t = t.old_policy
let new_policy t = t.new_policy
let batch t = t.batch
let rounds t = t.rounds
let num_rounds t = List.length t.rounds
let stamps_before t = t.stamps_before
let stamps_after t = t.stamps_after

let touched r = List.length r.batches

let round_mods r =
  List.fold_left (fun acc (_, mods) -> acc + List.length mods) 0 r.batches

let total_mods t = List.fold_left (fun acc r -> acc + round_mods r) 0 t.rounds

let flow_equal (a : Policy.flow) (b : Policy.flow) =
  a.plen = b.plen
  && Policy.prefix_bits ~plen:a.plen a.dst_value
     = Policy.prefix_bits ~plen:b.plen b.dst_value
  && a.path = b.path
  && a.waypoint = b.waypoint

(* Greedy earliest-fit batching: walk the (node, mod) stream in flow-id /
   path order and drop each mod into the first round where its node still
   has head-room.  Mods of one phase never depend on each other (no
   stamped packet can observe the phase in progress), so any placement is
   sound; earliest-fit minimises the round count for the given batch.  A
   node fills its rounds in order, so its [k]-th mod lands in round
   [k / batch]. *)
let pack_rounds ~batch mods =
  let placed = Hashtbl.create 64 and rounds = Hashtbl.create 16 in
  let count = ref 0 in
  List.iter
    (fun (node, m) ->
      let k = Option.value (Hashtbl.find_opt placed node) ~default:0 in
      Hashtbl.replace placed node (k + 1);
      let r = k / batch in
      if r >= !count then count := r + 1;
      let tbl =
        match Hashtbl.find_opt rounds r with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 8 in
            Hashtbl.add rounds r tbl;
            tbl
      in
      let ms = Option.value (Hashtbl.find_opt tbl node) ~default:[] in
      Hashtbl.replace tbl node (m :: ms))
    mods;
  List.init !count (fun r ->
      Hashtbl.fold (fun node ms acc -> (node, List.rev ms) :: acc) (Hashtbl.find rounds r) []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b))

(* A table of [(key, v)] pairs in which the first binding of a key wins,
   as [List.assoc_opt] would find it. *)
let table_of pairs =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v) pairs;
  tbl

let make ?(batch = 8) topo ~stamps ~old_policy ~new_policy =
  let ( let* ) = Result.bind in
  let* () = if batch < 1 then Error "batch must be positive" else Ok () in
  let* () =
    Result.map_error (fun e -> "old policy: " ^ e) (Policy.check topo old_policy)
  in
  let* () =
    Result.map_error (fun e -> "new policy: " ^ e) (Policy.check topo new_policy)
  in
  let stamp_tbl = table_of stamps in
  let stamp_of id = Hashtbl.find_opt stamp_tbl id in
  let* () =
    let missing =
      List.find_opt
        (fun (f : Policy.flow) ->
          match stamp_of f.flow_id with Some (0 | 1) -> false | _ -> true)
        old_policy
    in
    match missing with
    | Some f ->
        Error (Printf.sprintf "flow %d has no version stamp" f.flow_id)
    | None -> Ok ()
  in
  let sorted p =
    List.sort
      (fun (a : Policy.flow) b -> compare a.flow_id b.flow_id)
      p
  in
  let olds = sorted old_policy and news = sorted new_policy in
  let old_of = table_of (List.map (fun (f : Policy.flow) -> (f.flow_id, f)) olds) in
  let new_ids = table_of (List.map (fun (f : Policy.flow) -> (f.flow_id, ())) news) in
  (* Per-flow mod lists, newest flow first; Remove mods only carry ids. *)
  let adds = ref [] and removes = ref [] and flips = ref [] in
  let add (f : Policy.flow) ~version =
    adds :=
      List.map (fun (node, r) -> (node, Agent.Add r)) (Policy.hop_rules topo f ~version)
      :: !adds
  in
  let remove (f : Policy.flow) ~version =
    let id = Policy.rule_id ~flow_id:f.flow_id ~version in
    removes := List.map (fun node -> (node, Agent.Remove { id })) f.path :: !removes
  in
  List.iter
    (fun (nf : Policy.flow) ->
      match Hashtbl.find_opt old_of nf.flow_id with
      | Some old_f when flow_equal old_f nf -> ()
      | Some old_f ->
          let v = Option.get (stamp_of nf.flow_id) in
          let v' = 1 - v in
          add nf ~version:v';
          remove old_f ~version:v;
          flips := (nf.flow_id, Some v') :: !flips
      | None ->
          add nf ~version:0;
          flips := (nf.flow_id, Some 0) :: !flips)
    news;
  List.iter
    (fun (old_f : Policy.flow) ->
      if not (Hashtbl.mem new_ids old_f.flow_id) then begin
        remove old_f ~version:(Option.get (stamp_of old_f.flow_id));
        flips := (old_f.flow_id, None) :: !flips
      end)
    olds;
  let install = pack_rounds ~batch (List.concat (List.rev !adds)) in
  let uninstall = pack_rounds ~batch (List.concat (List.rev !removes)) in
  let flips = List.sort compare !flips in
  let rounds =
    List.map (fun b -> (Install, b, [])) install
    @ (if flips = [] then [] else [ (Flip, [], flips) ])
    @ List.map (fun b -> (Uninstall, b, [])) uninstall
  in
  let rounds =
    List.mapi
      (fun index (kind, batches, stamp_changes) ->
        { index; kind; batches; stamp_changes })
      rounds
  in
  let flip_of = table_of flips in
  let stamps_after =
    List.filter_map
      (fun (f : Policy.flow) ->
        match Hashtbl.find_opt flip_of f.flow_id with
        | Some v -> Option.map (fun v -> (f.flow_id, v)) v
        | None -> stamp_of f.flow_id |> Option.map (fun v -> (f.flow_id, v)))
      news
    |> List.sort compare
  in
  Ok
    {
      topo;
      old_policy;
      new_policy;
      batch;
      stamps_before = List.sort compare stamps;
      stamps_after;
      rounds;
    }

(* -- compensating rollback synthesis ------------------------------- *)

let stamps_at t ~upto =
  let stamps = Hashtbl.create 16 in
  List.iter (fun (fid, v) -> Hashtbl.replace stamps fid v) t.stamps_before;
  List.iter
    (fun r ->
      if r.index < upto then
        List.iter
          (fun (fid, v) ->
            match v with
            | Some v -> Hashtbl.replace stamps fid v
            | None -> Hashtbl.remove stamps fid)
          r.stamp_changes)
    t.rounds;
  Hashtbl.fold (fun fid v acc -> (fid, v) :: acc) stamps []
  |> List.sort compare

let inverse ?(upto = max_int) t =
  let executed = List.filter (fun r -> r.index < upto) t.rounds in
  (* Every rule the executed Uninstall rounds removed is an old-policy
     rule at its pre-rollout version; Remove mods only carry ids, so the
     full rules are recomputed from the old policy — byte-identical to
     what the fleet held before the rollout. *)
  let old_rules = Hashtbl.create 64 in
  let before = table_of t.stamps_before in
  List.iter
    (fun (f : Policy.flow) ->
      let v = Hashtbl.find before f.flow_id in
      List.iter
        (fun (node, (r : Fr_tern.Rule.t)) ->
          Hashtbl.replace old_rules (node, r.id) r)
        (Policy.hop_rules t.topo f ~version:v))
    t.old_policy;
  let reinstalls = ref [] and uninstalls = ref [] and flipped = ref None in
  List.iter
    (fun r ->
      (match r.kind with
      | Install ->
          List.iter
            (fun (node, mods) ->
              List.iter
                (function
                  | Agent.Add (rl : Fr_tern.Rule.t) ->
                      uninstalls :=
                        (node, Agent.Remove { id = rl.id }) :: !uninstalls
                  | _ -> ())
                mods)
            r.batches
      | Uninstall ->
          List.iter
            (fun (node, mods) ->
              List.iter
                (function
                  | Agent.Remove { id } -> (
                      match Hashtbl.find_opt old_rules (node, id) with
                      | Some rl ->
                          reinstalls := (node, Agent.Add rl) :: !reinstalls
                      | None ->
                          invalid_arg
                            (Printf.sprintf
                               "Plan.inverse: removed rule %d at node %d is \
                                not an old-policy rule"
                               id node))
                  | _ -> ())
                mods)
            r.batches
      | Flip -> ());
      if r.kind = Flip then flipped := Some r.stamp_changes)
    executed;
  (* Compensation order mirrors the two-phase protocol: restore the old
     version's rules first (no packet is stamped with them yet), then
     flip every flipped ingress back per-flow-atomically, then strip the
     new version's installed state (no packet carries it any more).
     Every prefix instant stays consistent w.r.t. the original plan. *)
  let flip_back =
    match !flipped with
    | None -> []
    | Some changes ->
        List.map (fun (fid, _) -> (fid, Hashtbl.find_opt before fid)) changes
        |> List.sort compare
  in
  let rounds =
    List.map
      (fun b -> (Install, b, []))
      (pack_rounds ~batch:t.batch (List.rev !reinstalls))
    @ (if flip_back = [] then [] else [ (Flip, [], flip_back) ])
    @ List.map
        (fun b -> (Uninstall, b, []))
        (pack_rounds ~batch:t.batch (List.rev !uninstalls))
  in
  let rounds =
    List.mapi
      (fun index (kind, batches, stamp_changes) ->
        { index; kind; batches; stamp_changes })
      rounds
  in
  {
    topo = t.topo;
    old_policy = t.new_policy;
    new_policy = t.old_policy;
    batch = t.batch;
    stamps_before = stamps_at t ~upto;
    stamps_after = t.stamps_before;
    rounds;
  }

let pp ppf t =
  Format.fprintf ppf "plan: %d rounds, %d mods, batch %d@." (num_rounds t)
    (total_mods t) t.batch;
  List.iter
    (fun r ->
      Format.fprintf ppf "  round %d [%s] %d switches, %d mods%s@." r.index
        (kind_to_string r.kind) (touched r) (round_mods r)
        (if r.stamp_changes = [] then ""
         else Printf.sprintf ", %d flips" (List.length r.stamp_changes)))
    t.rounds
