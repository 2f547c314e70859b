module Rng = Fr_prng.Rng

type t = {
  topo : Topo.t;
  old_policy : Policy.t;
  new_policy : Policy.t;
  stamps : (int * int) list;
}

(* /16 roots at (i+1) << 16; every third flow is a /24 child nested in
   its predecessor's root prefix — the nesting is what puts real edges
   into the per-switch dependency graphs. *)
let prefix_for i =
  if i mod 3 = 2 then
    (Int64.of_int ((i lsl 16) lor (((i mod 7) + 1) lsl 8)), 24)
  else (Int64.of_int ((i + 1) lsl 16), 16)

let pick_path rng topo =
  let n = Topo.nodes topo in
  let src = Rng.int_in rng 0 (n - 1) in
  let dst = ref (Rng.int_in rng 0 (n - 1)) in
  while !dst = src do
    dst := Rng.int_in rng 0 (n - 1)
  done;
  Rng.pick_list rng (Topo.simple_paths topo ~src ~dst:!dst)

let with_waypoint rng enabled path =
  if enabled && List.length path >= 3 then
    (* any interior node preserves "never bypassed" non-trivially *)
    Some (List.nth path (1 + Rng.int rng (List.length path - 2)))
  else None

let make ?(flows = 6) ?(reroute = 2) ?(withdraw = 1) ?(introduce = 1)
    ?(waypoints = 2) ~seed topo =
  if flows < 1 then invalid_arg "Scenario.make: flows must be positive";
  let rng = Rng.create ~seed in
  let reroute = min reroute flows in
  let withdraw = min withdraw (flows - reroute) in
  let old_policy =
    List.init flows (fun i ->
        let dst_value, plen = prefix_for i in
        let path = pick_path rng topo in
        {
          Policy.flow_id = i;
          dst_value;
          plen;
          path;
          waypoint = with_waypoint rng (i < waypoints) path;
        })
  in
  let kept = List.filteri (fun i _ -> i < flows - withdraw) old_policy in
  let new_policy =
    List.map
      (fun (f : Policy.flow) ->
        if f.flow_id < reroute then begin
          (* a fresh endpoint pair (almost) always gives a genuinely
             different path, even on trees/lines where endpoint pairs
             determine the path uniquely *)
          let rec repick k =
            let path = pick_path rng topo in
            if path <> f.path || k = 0 then path else repick (k - 1)
          in
          let path = repick 8 in
          {
            f with
            path;
            waypoint = with_waypoint rng (f.flow_id < waypoints) path;
          }
        end
        else f)
      kept
  in
  let new_policy =
    new_policy
    @ List.init introduce (fun j ->
          let i = flows + j in
          let dst_value, plen = (Int64.of_int ((i + 1) lsl 16), 16) in
          let path = pick_path rng topo in
          {
            Policy.flow_id = i;
            dst_value;
            plen;
            path;
            waypoint = with_waypoint rng (j = 0 && waypoints > 0) path;
          })
  in
  let fail who = function
    | Error e -> invalid_arg (Printf.sprintf "Scenario.make: %s: %s" who e)
    | Ok () -> ()
  in
  fail "old policy" (Policy.check topo old_policy);
  fail "new policy" (Policy.check topo new_policy);
  {
    topo;
    old_policy;
    new_policy;
    stamps = List.map (fun (f : Policy.flow) -> (f.flow_id, 0)) old_policy;
  }

(* -- per-switch fault schedules ------------------------------------- *)

type node_fault =
  | Crash_at of { round : int; mid_flush : bool }
  | Slow_from of { round : int; slow_ms : float; heal_after : int }
  | Stuck_bank of { round : int; shard : int; rows : int list }

type fault_schedule = (int * node_fault list) list

let fault_to_string (node, f) =
  match f with
  | Crash_at { round; mid_flush } ->
      Printf.sprintf "%d:crash@%d%s" node round (if mid_flush then "+mid" else "")
  | Slow_from { round; slow_ms; heal_after } ->
      Printf.sprintf "%d:slow@%d=%gx%d" node round slow_ms heal_after
  | Stuck_bank { round; shard; rows } ->
      Printf.sprintf "%d:stuck@%d=%d:%s" node round shard
        (String.concat "+" (List.map string_of_int rows))

let fault_of_string s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.index_opt s ':' with
  | None -> fail "fault %S: expected NODE:KIND@ROUND..." s
  | Some i -> (
      let node = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt node, String.index_opt rest '@') with
      | None, _ -> fail "fault %S: bad node %S" s node
      | _, None -> fail "fault %S: expected KIND@ROUND" s
      | Some node, Some j -> (
          let kind = String.sub rest 0 j in
          let arg = String.sub rest (j + 1) (String.length rest - j - 1) in
          match kind with
          | "crash" -> (
              let round, mid =
                match String.index_opt arg '+' with
                | Some k when String.sub arg (k + 1) (String.length arg - k - 1) = "mid"
                  ->
                    (String.sub arg 0 k, true)
                | _ -> (arg, false)
              in
              match int_of_string_opt round with
              | Some round when round >= 0 ->
                  Ok (node, Crash_at { round; mid_flush = mid })
              | _ -> fail "fault %S: bad crash round %S" s round)
          | "slow" -> (
              match String.index_opt arg '=' with
              | None -> fail "fault %S: expected slow@ROUND=MSxHEAL" s
              | Some k -> (
                  let round = String.sub arg 0 k in
                  let tail = String.sub arg (k + 1) (String.length arg - k - 1) in
                  let ms, heal =
                    match String.index_opt tail 'x' with
                    | Some l ->
                        ( String.sub tail 0 l,
                          String.sub tail (l + 1) (String.length tail - l - 1) )
                    | None -> (tail, "1")
                  in
                  match
                    (int_of_string_opt round, float_of_string_opt ms,
                     int_of_string_opt heal)
                  with
                  | Some round, Some ms, Some heal
                    when round >= 0 && Float.is_finite ms && ms > 0.
                         && heal >= 1 ->
                      Ok (node, Slow_from { round; slow_ms = ms; heal_after = heal })
                  | _ -> fail "fault %S: bad slow spec %S" s arg))
          | "stuck" -> (
              match String.index_opt arg '=' with
              | None -> fail "fault %S: expected stuck@ROUND=SHARD:A+B" s
              | Some k -> (
                  let round = String.sub arg 0 k in
                  let tail = String.sub arg (k + 1) (String.length arg - k - 1) in
                  match String.index_opt tail ':' with
                  | None -> fail "fault %S: expected SHARD:A+B" s
                  | Some l -> (
                      let shard = String.sub tail 0 l in
                      let rows =
                        String.sub tail (l + 1) (String.length tail - l - 1)
                        |> String.split_on_char '+'
                        |> List.map int_of_string_opt
                      in
                      match
                        (int_of_string_opt round, int_of_string_opt shard)
                      with
                      | Some round, Some shard
                        when round >= 0 && shard >= 0
                             && rows <> []
                             && List.for_all
                                  (function Some r -> r >= 0 | None -> false)
                                  rows ->
                          Ok
                            ( node,
                              Stuck_bank
                                {
                                  round;
                                  shard;
                                  rows = List.filter_map Fun.id rows;
                                } )
                      | _ -> fail "fault %S: bad stuck spec %S" s arg)))
          | k -> fail "fault %S: unknown fault kind %S" s k))

let schedule_of_faults faults =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (node, f) ->
      Hashtbl.replace tbl node (f :: Option.value ~default:[] (Hashtbl.find_opt tbl node)))
    faults;
  Hashtbl.fold (fun node fs acc -> (node, List.rev fs) :: acc) tbl []
  |> List.sort compare

let has_crash faults =
  List.exists
    (fun (_, fs) ->
      List.exists (function Crash_at _ -> true | _ -> false) fs)
    faults

let chaos_faults ?(max_faults = 3) ?(shards = 2) ?(capacity = 64) ~seed ~rounds
    ~nodes () =
  if nodes < 1 then invalid_arg "Scenario.chaos_faults: nodes must be positive";
  let rng = Rng.create ~seed in
  let n_faults = 1 + Rng.int rng (max 1 max_faults) in
  let faults = ref [] in
  let has_crash node =
    List.exists
      (fun (n, f) -> n = node && match f with Crash_at _ -> true | _ -> false)
      !faults
  in
  for _ = 1 to n_faults do
    let node = Rng.int rng nodes in
    let round = Rng.int rng (max 1 rounds) in
    match Rng.int rng 3 with
    | 0 ->
        (* at most one crash per node: a second crash of the same switch
           inside one rollout adds nothing but double-recovery noise *)
        if not (has_crash node) then
          faults :=
            (node, Crash_at { round; mid_flush = Rng.bool rng }) :: !faults
    | 1 ->
        faults :=
          ( node,
            Slow_from
              {
                round;
                slow_ms = 200. +. float_of_int (Rng.int rng 400);
                heal_after = 2 + Rng.int rng 4;
              } )
          :: !faults
    | _ ->
        let base = Rng.int rng (max 1 (capacity / 2)) in
        faults :=
          ( node,
            Stuck_bank
              {
                round;
                shard = Rng.int rng (max 1 shards);
                rows = [ base; (base + 7) mod capacity ];
              } )
          :: !faults
  done;
  schedule_of_faults (List.rev !faults)

let plan ?batch t =
  Plan.make ?batch t.topo ~stamps:t.stamps ~old_policy:t.old_policy
    ~new_policy:t.new_policy

let pp ppf t =
  Format.fprintf ppf "%a: %d -> %d flows@." Topo.pp t.topo
    (List.length t.old_policy)
    (List.length t.new_policy);
  List.iter (fun f -> Format.fprintf ppf "  old %a@." Policy.pp_flow f) t.old_policy;
  List.iter (fun f -> Format.fprintf ppf "  new %a@." Policy.pp_flow f) t.new_policy
