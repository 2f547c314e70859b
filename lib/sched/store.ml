module Tcam = Fr_tcam.Tcam
module Min_tree = Fr_bitree.Min_tree

type backend = On_demand | Array_backend | Bit_backend

let backend_to_string = function
  | On_demand -> "on-demand"
  | Array_backend -> "array"
  | Bit_backend -> "bit"

let all_backends = [ On_demand; Array_backend; Bit_backend ]

type repr =
  | Demand
  | Arr of int array
  | Bit of Min_tree.t  (* indices mirrored for Dir.Up, see below *)

type t = {
  backend : backend;
  dir : Dir.t;
  graph : Fr_dag.Graph.t;
  tcam : Tcam.t;
  repr : repr;
}

let dir t = t.dir
let backend t = t.backend

let size t = Tcam.size t.tcam

(* Tie-breaking: the LOWEST address wins ties for Up, the HIGHEST for Down —
   i.e. always the candidate nearest the entries, keeping the free pool
   contiguous.  (Algorithm 1's literal "<=" would prefer the highest
   address, which eats the free pool from the far end and eventually
   strands the top slot; see DESIGN.md §7.)  The BIT natively prefers the
   highest internal index on ties, so Up runs on mirrored indices. *)
let to_internal t a = match t.dir with Dir.Up -> size t - 1 - a | Dir.Down -> a
let of_internal = to_internal

(* Dead rows are unusable as chain landing slots: their metric is a
   sentinel larger than any real chain length, so [min_in] can both
   avoid them and recognise an all-dead window.  Far below [max_int] so
   arithmetic around it cannot overflow. *)
let dead_metric = max_int / 4

let compute t addr =
  if Tcam.is_dead t.tcam addr then dead_metric
  else Metric.compute t.dir t.graph t.tcam ~addr

let stored_get t addr =
  match t.repr with
  | Demand -> compute t addr
  | Arr m -> m.(addr)
  | Bit mt -> Min_tree.get mt (to_internal t addr)

let get t addr =
  if Tcam.is_dead t.tcam addr then dead_metric else stored_get t addr

let stored_set t addr v =
  match t.repr with
  | Demand -> ()
  | Arr m -> m.(addr) <- v
  | Bit mt -> Min_tree.set mt (to_internal t addr) v

let rebuild t =
  match t.repr with
  | Demand -> ()
  | Arr _ | Bit _ ->
      for a = 0 to size t - 1 do
        stored_set t a (compute t a)
      done

let create ~backend ~dir graph tcam =
  let repr =
    match backend with
    | On_demand -> Demand
    | Array_backend -> Arr (Array.make (Tcam.size tcam) 0)
    | Bit_backend -> Bit (Min_tree.create (Tcam.size tcam) ~init:0)
  in
  let t = { backend; dir; graph; tcam; repr } in
  rebuild t;
  t

(* Linear scan with direction-dependent tie-breaking: Up prefers the lowest
   address, Down the highest (see above). *)
let scan_min value_at t ~lo ~hi =
  let lo = max 0 lo and hi = min (size t - 1) hi in
  if lo > hi then None
  else begin
    let best_a = ref lo and best_v = ref (value_at t lo) in
    for a = lo + 1 to hi do
      let v = value_at t a in
      let replace =
        match t.dir with Dir.Up -> v < !best_v | Dir.Down -> v <= !best_v
      in
      if replace then begin
        best_a := a;
        best_v := v
      end
    done;
    Some (!best_a, !best_v)
  end

let raw_min_in t ~lo ~hi =
  match t.repr with
  | Demand -> scan_min compute t ~lo ~hi
  | Arr m -> scan_min (fun _ a -> m.(a)) t ~lo ~hi
  | Bit mt ->
      let lo = max 0 lo and hi = min (size t - 1) hi in
      if lo > hi then None
      else begin
        let ilo = min (to_internal t lo) (to_internal t hi)
        and ihi = max (to_internal t lo) (to_internal t hi) in
        match Min_tree.min_in mt ~lo:ilo ~hi:ihi with
        | None -> None
        | Some (ia, v) -> Some (of_internal t ia, v)
      end

(* Stored backends can hold a stale (pre-discovery) value for a row that
   has since been declared dead: a failed op never refreshes its target.
   Each query lazily repairs the stale cells it trips over — every
   round-trip permanently raises one dead address to the sentinel, so
   the loop terminates.  (On-demand computes fresh values, so a dead
   winner already carries the sentinel and falls out on the first
   test.) *)
let rec min_in t ~lo ~hi =
  match raw_min_in t ~lo ~hi with
  | None -> None
  | Some (_, v) when v >= dead_metric -> None
  | Some (a, _) when Tcam.is_dead t.tcam a ->
      stored_set t a dead_metric;
      min_in t ~lo ~hi
  | Some _ as best -> best

let refresh t ~addrs ~ids =
  match t.repr with
  | Demand -> ()
  | Arr _ | Bit _ ->
      let pending : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let queue = Queue.create () in
      let enqueue_id id =
        if not (Hashtbl.mem pending id) then begin
          Hashtbl.replace pending id ();
          Queue.add id queue
        end
      in
      (* Phase 1: addresses whose occupancy changed get fresh values, and
         every entry whose chain reads them is queued unconditionally (its
         nearest-hop pointer may have silently moved here or away). *)
      List.iter
        (fun a ->
          stored_set t a (compute t a);
          match Tcam.read t.tcam a with
          | Tcam.Free -> ()
          | Tcam.Used id -> Dir.propagation_targets t.dir t.graph id enqueue_id)
        (List.sort_uniq Int.compare addrs);
      List.iter enqueue_id ids;
      (* Phase 2: value-change propagation along the reverse chains. *)
      while not (Queue.is_empty queue) do
        let id = Queue.pop queue in
        Hashtbl.remove pending id;
        match Tcam.addr_of t.tcam id with
        | None -> ()
        | Some a ->
            let v = compute t a in
            if v <> stored_get t a then begin
              stored_set t a v;
              Dir.propagation_targets t.dir t.graph id enqueue_id
            end
      done

let snapshot t = Array.init (size t) (fun a -> stored_get t a)
