module Tcam = Fr_tcam.Tcam
module Op = Fr_tcam.Op

let unreachable = max_int / 4

(* One DP instance = one update.  [windows] is rebuilt for the whole table
   on every call — RuleTris's per-update initialisation cost. *)
type dp = {
  tcam : Tcam.t;
  window : int array;  (* per address: occupant's displacement bound *)
  cost : int array;  (* -1 = not yet computed *)
  choice : int array;  (* argmin address inside the window *)
  frees : int array;  (* free addresses, ascending *)
}

let init graph tcam =
  let n = Tcam.size tcam in
  let window = Array.make n (-1) in
  let cost = Array.make n (-1) in
  let choice = Array.make n (-1) in
  let frees = Array.make (max 1 (Tcam.free_count tcam)) 0 in
  let nf = ref 0 in
  for a = 0 to n - 1 do
    (* Dead rows can never receive a write: they are neither usable free
       slots nor freeable used ones, so their cost pins at unreachable
       and chains route around them. *)
    if Tcam.is_dead tcam a then cost.(a) <- unreachable
    else
      match Tcam.read tcam a with
      | Tcam.Free ->
          cost.(a) <- 0;
          frees.(!nf) <- a;
          incr nf
      | Tcam.Used id -> window.(a) <- Dir.bound Dir.Up graph tcam id
  done;
  { tcam; window; cost; choice; frees = Array.sub frees 0 !nf }

(* Lowest free address in (lo, hi], if any — binary search over [frees]. *)
let first_free_in dp ~lo ~hi =
  let n = Array.length dp.frees in
  let rec lower l r =
    (* least index with frees.(i) > lo *)
    if l >= r then l
    else
      let m = (l + r) / 2 in
      if dp.frees.(m) > lo then lower l m else lower (m + 1) r
  in
  let i = lower 0 n in
  if i < n && dp.frees.(i) <= hi then Some dp.frees.(i) else None

(* cost a = writes needed to free address [a]: one plus the cheapest cost
   over the occupant's displacement window, 0 for free slots. *)
let rec solve dp a =
  if dp.cost.(a) >= 0 then dp.cost.(a)
  else begin
    (* A free slot in the window is unbeatable (cost 0); take the lowest,
       the same free-pool-preserving choice as the greedy's stores, found
       by binary search so the huge windows of dependency-free entries
       stay O(log n).  Only free-less windows — which are bounded by a
       real dependency and hence short — are scanned. *)
    match first_free_in dp ~lo:a ~hi:dp.window.(a) with
    | Some f ->
        dp.cost.(a) <- 1;
        dp.choice.(a) <- f;
        1
    | None ->
        let best = ref unreachable and arg = ref (-1) in
        for b = a + 1 to dp.window.(a) do
          let c = solve dp b in
          if c < !best then begin
            best := c;
            arg := b
          end
        done;
        let c = if !best >= unreachable then unreachable else 1 + !best in
        dp.cost.(a) <- c;
        dp.choice.(a) <- !arg;
        c
  end

let best_in_window dp ~lo ~hi =
  let lo = max 0 lo and hi = min (Array.length dp.cost - 1) hi in
  if lo > hi then None
  else begin
    let best = ref unreachable and arg = ref (-1) in
    (* Ascending scan with strict < : lowest address wins ties. *)
    for a = lo to hi do
      let c = solve dp a in
      if c < !best then begin
        best := c;
        arg := a
      end
    done;
    if !best >= unreachable then None else Some (!arg, !best)
  end

let reconstruct dp ~rule_id ~start =
  let rec go f a acc =
    let acc = Op.insert ~rule_id:f ~addr:a :: acc in
    match Tcam.read dp.tcam a with
    | Tcam.Free -> acc
    | Tcam.Used occupant -> go occupant dp.choice.(a) acc
  in
  go rule_id start []

let schedule_insert graph tcam ~rule_id ~deps ~dependents =
  match Algo.fresh_request_check tcam ~rule_id with
  | Error _ as e -> e
  | Ok () -> (
      match Algo.insert_window tcam ~deps ~dependents with
      | Error _ as e -> e
      | Ok (lo, hi) -> (
          let dp = init graph tcam in
          match best_in_window dp ~lo:(lo + 1) ~hi with
          | None -> Error "no reachable free slot for the insertion"
          | Some (a, _) -> Ok (reconstruct dp ~rule_id ~start:a)))

let schedule_delete tcam ~rule_id =
  match Tcam.addr_of tcam rule_id with
  | None -> Error (Printf.sprintf "entry %d is not in the TCAM" rule_id)
  | Some addr -> Ok [ Op.delete ~addr ]

let make ~graph ~tcam =
  {
    Algo.name = "ruletris";
    schedule_insert =
      (fun ~rule_id ~deps ~dependents ->
        schedule_insert graph tcam ~rule_id ~deps ~dependents);
    schedule_delete = (fun ~rule_id -> schedule_delete tcam ~rule_id);
    after_apply = (fun _ -> ());
    rows_revived = ignore;
  }

let min_cost_in_window ~graph tcam ~lo ~hi =
  let dp = init graph tcam in
  match best_in_window dp ~lo ~hi with
  | None -> None
  | Some (_, c) -> Some (c + 1)
