module Tcam = Fr_tcam.Tcam
module Op = Fr_tcam.Op
module Layout = Fr_tcam.Layout
module Graph = Fr_dag.Graph

type delete_mode = Dirty | Balance

type state = {
  graph : Graph.t;
  tcam : Tcam.t;
  up : Store.t;
  down : Store.t;
  r : Layout.separated_regions;
  delete_mode : delete_mode;
  backend : Store.backend;
  mutable pending_post : unit -> unit;
  mutable pending_ids : int list;
  (* Addresses whose occupancy changes without being any op's target — the
     balance fill's final vacated slot. *)
  mutable pending_addrs : int list;
  (* The sequence [pending_post] was computed for.  [after_apply] runs the
     closure only when exactly this sequence landed; anything else (a
     fault-truncated prefix, an in-place write after a rejected schedule)
     resynchronises the regions from the TCAM instead. *)
  mutable pending_ops : Op.t list;
}

let create ?(backend = Store.Bit_backend) ~delete_mode ~graph ~tcam () =
  {
    graph;
    tcam;
    up = Store.create ~backend ~dir:Dir.Up graph tcam;
    down = Store.create ~backend ~dir:Dir.Down graph tcam;
    r = Layout.separated_regions_of tcam;
    delete_mode;
    backend;
    pending_post = ignore;
    pending_ids = [];
    pending_addrs = [];
    pending_ops = [];
  }

let regions st = st.r
let up_store st = st.up
let down_store st = st.down

(* Greedy chain with displacement windows clamped at [clamp], so a chain
   spills at most one slot past its region's middle edge. *)
let chain st ~dir ~rule_id ~lo ~hi ~clamp =
  let store = match dir with Dir.Up -> st.up | Dir.Down -> st.down in
  let rec loop f lo hi steps acc =
    if steps > Tcam.size st.tcam then
      Error "displacement chain exceeded the TCAM size (invariant violation)"
    else
      match Store.min_in store ~lo ~hi with
      | None -> Error "no feasible address: candidate window is empty"
      | Some (a, _) -> (
          let acc = Op.insert ~rule_id:f ~addr:a :: acc in
          match Tcam.read st.tcam a with
          | Tcam.Free -> Ok acc
          | Tcam.Used occupant ->
              let lo', hi' =
                match dir with
                | Dir.Up ->
                    (a + 1, min (Dir.bound Dir.Up st.graph st.tcam occupant) clamp)
                | Dir.Down ->
                    (max (Dir.bound Dir.Down st.graph st.tcam occupant) clamp, a - 1)
              in
              loop occupant lo' hi' (steps + 1) acc)
  in
  loop rule_id lo hi 0 []

(* Region bookkeeping for an insert sequence, evaluated against the
   pre-apply TCAM and captured as a closure to run after the ops land. *)
let post_of_insert_ops st ops =
  let r = st.r in
  let bn = r.Layout.bottom_next and tn = r.Layout.top_next in
  let classify a = if a < bn then `Bottom else if a > tn then `Top else `Middle a in
  let db = ref 0 and dt = ref 0 in
  let new_bn = ref bn and new_tn = ref tn in
  List.iter
    (fun op ->
      match op with
      | Op.Delete _ -> ()
      | Op.Insert { rule_id; addr } ->
          (match Tcam.addr_of st.tcam rule_id with
          | Some old -> (
              match classify old with
              | `Bottom -> decr db
              | `Top -> decr dt
              | `Middle _ -> ())
          | None -> ());
          (match classify addr with
          | `Bottom -> incr db
          | `Top -> incr dt
          | `Middle a ->
              (* Clamped chains and direct middle inserts only ever touch
                 the pool's edges; joining an edge moves it. *)
              if a = tn then begin
                incr dt;
                new_tn := min !new_tn (a - 1)
              end
              else begin
                incr db;
                new_bn := max !new_bn (a + 1)
              end))
    ops;
  fun () ->
    r.Layout.bottom_count <- r.Layout.bottom_count + !db;
    r.Layout.top_count <- r.Layout.top_count + !dt;
    r.Layout.bottom_next <- !new_bn;
    r.Layout.top_next <- !new_tn

let schedule_insert st ~rule_id ~deps ~dependents =
  match Algo.fresh_request_check st.tcam ~rule_id with
  | Error _ as e -> e
  | Ok () -> (
      match Algo.insert_window st.tcam ~deps ~dependents with
      | Error _ as e -> e
      | Ok (lo, hi) ->
          let r = st.r in
          let size = Tcam.size st.tcam in
          (* If a region-local chain cannot reach free space (region packed
             and middle pool gone), retry unclamped in both directions
             before giving up. *)
          let with_fallback primary =
            match primary () with
            | Ok _ as ok -> ok
            | Error _ -> (
                match
                  chain st ~dir:Dir.Up ~rule_id ~lo:(lo + 1)
                    ~hi:(min hi (size - 1)) ~clamp:(size - 1)
                with
                | Ok _ as ok -> ok
                | Error _ ->
                    chain st ~dir:Dir.Down ~rule_id ~lo:(max 0 lo) ~hi:(hi - 1)
                      ~clamp:0)
          in
          let result =
            if hi < r.Layout.bottom_next then
              (* Dependency inside the bottom region: upward chain, windows
                 clamped at the region's middle edge. *)
              with_fallback (fun () ->
                  chain st ~dir:Dir.Up ~rule_id ~lo:(lo + 1) ~hi
                    ~clamp:r.Layout.bottom_next)
            else if lo > r.Layout.top_next then
              (* Dependent inside the top region: downward chain over
                 [lo, hi) — the dependent's slot is the displaceable one. *)
              with_fallback (fun () ->
                  chain st ~dir:Dir.Down ~rule_id ~lo ~hi:(hi - 1)
                    ~clamp:r.Layout.top_next)
            else if Layout.middle_free r > 0 then begin
              (* Straddling window: land on a middle edge, zero movements,
                 on the side holding fewer entries (§V.1). *)
              let bottom_ok =
                r.Layout.bottom_next >= lo + 1
                && r.Layout.bottom_next <= hi
                && not (Tcam.is_dead st.tcam r.Layout.bottom_next)
              in
              let top_ok =
                r.Layout.top_next >= lo + 1
                && r.Layout.top_next <= hi
                && not (Tcam.is_dead st.tcam r.Layout.top_next)
              in
              let side =
                if bottom_ok && top_ok then
                  if r.Layout.top_count > r.Layout.bottom_count then `Bottom
                  else `Top
                else if bottom_ok then `Bottom
                else if top_ok then `Top
                else `None
              in
              match side with
              | `Bottom -> Ok [ Op.insert ~rule_id ~addr:r.Layout.bottom_next ]
              | `Top -> Ok [ Op.insert ~rule_id ~addr:r.Layout.top_next ]
              | `None ->
                  (* Should be unreachable (a straddling window contains
                     the middle pool); degrade gracefully. *)
                  chain st ~dir:Dir.Up ~rule_id ~lo:(lo + 1)
                    ~hi:(min hi (size - 1)) ~clamp:(size - 1)
            end
            else
              (* Middle pool exhausted: the layout has degenerated; run the
                 plain greedy over the whole window — upward first, then
                 downward if the only free slots are holes below it. *)
              with_fallback (fun () -> Error "middle pool exhausted")
          in
          (match result with
          | Ok ops ->
              st.pending_post <- post_of_insert_ops st ops;
              st.pending_ops <- ops
          | Error _ ->
              st.pending_post <- ignore;
              st.pending_ops <- []);
          result)

(* Balance delete: migrate the hole to the region's middle edge.  Each step
   moves the farthest legally movable entry into the hole; the entry
   adjacent to the hole is always legal, so the loop advances. *)
let balance_fill_bottom st ~hole =
  let r = st.r in
  let rec steps cur acc =
    (* Highest movable occupant of (cur, bottom_next); the lowest occupant
       is always movable (everything below it is free). *)
    let pick =
      let found = ref None in
      let a = ref (r.Layout.bottom_next - 1) in
      while !found = None && !a > cur do
        (match Tcam.read st.tcam !a with
        | Tcam.Free -> ()
        | Tcam.Used id ->
            (* A dead source slot must not become the next hole to fill:
               migration stops before it. *)
            let movable =
              (not (Tcam.is_dead st.tcam !a))
              &&
              match Dir.next_hop Dir.Down st.graph st.tcam id with
              | None -> true
              | Some dep_max -> dep_max < cur
            in
            if movable then found := Some (!a, id));
        decr a
      done;
      (* The scan runs high-to-low, so [lowest] holds the last occupant
         seen; rescan upward for the true lowest when nothing qualified. *)
      match !found with
      | Some _ as f -> f
      | None ->
          let rec lowest_used a =
            if a >= r.Layout.bottom_next then None
            else
              match Tcam.read st.tcam a with
              | Tcam.Used id when not (Tcam.is_dead st.tcam a) -> Some (a, id)
              | Tcam.Used _ | Tcam.Free -> lowest_used (a + 1)
          in
          lowest_used (cur + 1)
    in
    match pick with
    | None -> (cur, acc)  (* nothing above the hole: region shrinks to it *)
    | Some (a, id) -> steps a (Op.insert ~rule_id:id ~addr:cur :: acc)
  in
  let final_hole, moves = steps hole [] in
  (final_hole, List.rev moves)

let balance_fill_top st ~hole =
  let r = st.r in
  let rec steps cur acc =
    let pick =
      let found = ref None in
      let a = ref (r.Layout.top_next + 1) in
      while !found = None && !a < cur do
        (match Tcam.read st.tcam !a with
        | Tcam.Free -> ()
        | Tcam.Used id ->
            let movable =
              (not (Tcam.is_dead st.tcam !a))
              &&
              match Dir.next_hop Dir.Up st.graph st.tcam id with
              | None -> true
              | Some dep_min -> dep_min > cur
            in
            if movable then found := Some (!a, id));
        incr a
      done;
      match !found with
      | Some _ as f -> f
      | None ->
          let rec highest_used a =
            if a <= r.Layout.top_next then None
            else
              match Tcam.read st.tcam a with
              | Tcam.Used id when not (Tcam.is_dead st.tcam a) -> Some (a, id)
              | Tcam.Used _ | Tcam.Free -> highest_used (a - 1)
          in
          highest_used (cur - 1)
    in
    match pick with
    | None -> (cur, acc)
    | Some (a, id) -> steps a (Op.insert ~rule_id:id ~addr:cur :: acc)
  in
  let final_hole, moves = steps hole [] in
  (final_hole, List.rev moves)

(* The hole a balance delete leaves becomes the region's middle edge only
   when every slot between it and the old edge is free: an entry on a
   dead row never moves, so the hole can end beyond it, and the edge must
   not pass an occupied slot (the middle pool is all free).  Otherwise
   the region keeps its edge and the hole stays inside it. *)
let free_between st ~lo ~hi =
  let rec go a = a > hi || (Tcam.is_free st.tcam a && go (a + 1)) in
  go lo

let schedule_delete st ~rule_id =
  match Tcam.addr_of st.tcam rule_id with
  | None ->
      st.pending_post <- ignore;
      st.pending_ops <- [];
      Error (Printf.sprintf "entry %d is not in the TCAM" rule_id)
  | Some addr ->
      let r = st.r in
      let affected = ref [] in
      Graph.iter_dependents st.graph rule_id (fun x -> affected := x :: !affected);
      Graph.iter_deps st.graph rule_id (fun x -> affected := x :: !affected);
      st.pending_ids <- !affected;
      let in_bottom = addr < r.Layout.bottom_next in
      (* A dead hole cannot be refilled (writes into it fail), so balance
         deletes degrade to dirty ones there: erase in place — the
         valid bit still clears — and leave the hole where it is. *)
      let mode =
        if Tcam.is_dead st.tcam addr then Dirty else st.delete_mode
      in
      (match mode with
      | Dirty ->
          st.pending_post <-
            (fun () ->
              if in_bottom then r.Layout.bottom_count <- r.Layout.bottom_count - 1
              else r.Layout.top_count <- r.Layout.top_count - 1);
          let ops = [ Op.delete ~addr ] in
          st.pending_ops <- ops;
          Ok ops
      | Balance ->
          if in_bottom then begin
            let final_hole, moves = balance_fill_bottom st ~hole:addr in
            st.pending_post <-
              (fun () ->
                r.Layout.bottom_count <- r.Layout.bottom_count - 1;
                if free_between st ~lo:(final_hole + 1) ~hi:(r.Layout.bottom_next - 1)
                then r.Layout.bottom_next <- final_hole);
            st.pending_addrs <- [ final_hole ];
            let ops = Op.delete ~addr :: moves in
            st.pending_ops <- ops;
            Ok ops
          end
          else begin
            let final_hole, moves = balance_fill_top st ~hole:addr in
            st.pending_post <-
              (fun () ->
                r.Layout.top_count <- r.Layout.top_count - 1;
                if free_between st ~lo:(r.Layout.top_next + 1) ~hi:(final_hole - 1)
                then r.Layout.top_next <- final_hole);
            st.pending_addrs <- [ final_hole ];
            let ops = Op.delete ~addr :: moves in
            st.pending_ops <- ops;
            Ok ops
          end)

(* Rebuild the region model from the TCAM image alone, choosing the longest
   run of free slots as the middle pool — the one region shape every
   scheduling path can trust ([bottom_next]/[top_next] must point at free
   slots, and the middle pool must be entirely free; entries stranded
   inside a region by a truncated sequence become that region's holes,
   which the chain logic already tolerates). *)
let resync st =
  let sz = Tcam.size st.tcam in
  let best_lo = ref sz and best_len = ref 0 in
  let cur_lo = ref 0 and cur_len = ref 0 in
  for a = 0 to sz - 1 do
    if Tcam.is_free st.tcam a then begin
      if !cur_len = 0 then cur_lo := a;
      incr cur_len;
      if !cur_len > !best_len then begin
        best_lo := !cur_lo;
        best_len := !cur_len
      end
    end
    else cur_len := 0
  done;
  let bn, tn =
    if !best_len = 0 then (sz, -1) else (!best_lo, !best_lo + !best_len - 1)
  in
  let bc = ref 0 and tc = ref 0 in
  Tcam.iter_used st.tcam (fun ~addr ~rule_id:_ ->
      if addr < bn then incr bc else if addr > tn then incr tc);
  st.r.Layout.bottom_next <- bn;
  st.r.Layout.top_next <- tn;
  st.r.Layout.bottom_count <- !bc;
  st.r.Layout.top_count <- !tc

let after_apply st ops =
  let scheduled = st.pending_ops in
  let post = st.pending_post in
  st.pending_ops <- [];
  st.pending_post <- ignore;
  (if List.equal Op.equal ops scheduled then post ()
   else if scheduled = [] then
     (* an in-place write the scheduler never saw (Set_action): occupancy
        is unchanged, the region model still holds *)
     ()
   else
     (* a truncated or substituted sequence (injected fault, or a caller
        touching the table after a rejected schedule): the closure's
        assumptions are void — re-derive the regions from the hardware *)
     resync st);
  let addrs = st.pending_addrs @ Algo.touched ~scheduled ops in
  st.pending_addrs <- [];
  let ids = st.pending_ids in
  st.pending_ids <- [];
  Store.refresh st.up ~addrs ~ids;
  Store.refresh st.down ~addrs ~ids

let algo st =
  let mode =
    match st.delete_mode with Dirty -> "fr-sd" | Balance -> "fr-sb"
  in
  {
    Algo.name = Printf.sprintf "%s/%s" mode (Store.backend_to_string st.backend);
    schedule_insert =
      (fun ~rule_id ~deps ~dependents -> schedule_insert st ~rule_id ~deps ~dependents);
    schedule_delete = (fun ~rule_id -> schedule_delete st ~rule_id);
    after_apply = (fun ops -> after_apply st ops);
    rows_revived =
      (fun addrs ->
        Store.refresh st.up ~addrs ~ids:[];
        Store.refresh st.down ~addrs ~ids:[]);
  }
