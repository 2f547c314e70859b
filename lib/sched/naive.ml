module Tcam = Fr_tcam.Tcam
module Op = Fr_tcam.Op

type pending = Commit of { id : int; p : int } | Remove of int | Nothing

type state = {
  tcam : Tcam.t;
  prio : (int, int) Hashtbl.t;  (* dense ranks: 1 = bottom *)
  mutable pending : pending;
  mutable renumbers : int;
}

let create ~tcam =
  let st = { tcam; prio = Hashtbl.create 64; pending = Nothing; renumbers = 0 } in
  let i = ref 0 in
  Tcam.iter_used tcam (fun ~addr:_ ~rule_id ->
      incr i;
      Hashtbl.replace st.prio rule_id !i);
  st

let priority_of st id = Hashtbl.find_opt st.prio id
let renumber_count st = st.renumbers

let prio_exn st id =
  match Hashtbl.find_opt st.prio id with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Naive: entry %d has no priority" id)

let max_priority st = Hashtbl.fold (fun _ p acc -> max p acc) st.prio 0

(* The address of the lowest-addressed entry whose priority is at least
   [p] (the table is priority-sorted, so everything above it also is). *)
let first_at_or_above st p =
  Tcam.first_used st.tcam (fun id -> prio_exn st id >= p)

(* The firmware's per-movement work: re-locate the displaced entry by a
   fresh table scan (§VI.A: "it needs to locate the suitable place in
   every update, and assign a new priority for all entries that need to be
   moved").  The scan result is the entry's own slot — the point is its
   cost, which is what the paper's measurements show. *)
let relocate_entry st id =
  ignore (first_at_or_above st (prio_exn st id))

(* Shifting generalised over dead rows.  The window [pos, U] (resp.
   [D, pos - 1]) grows until its writable (non-dead) slots can hold every
   entry inside it plus the new one; entries are then repacked onto the
   writable slots in the same relative order, stepping over dead free
   slots and carrying the occupants of dead used rows along (entries can
   always be moved {e out} of a dead row — only writes {e into} one
   fail).  The walk stops at the first writable free slot where the
   writable surplus reaches one, so on healthy hardware the window is
   exactly [pos, nearest-free] and the ops degenerate to the classic
   shift-everything-by-one.  Minimality of the window means every entry
   in it moves strictly toward the free end, so applying the moves
   farthest-first keeps each write target free and no entry ever passes
   another — DAG order holds at every intermediate state. *)
let grow_window st ~from ~step =
  let n = Tcam.size st.tcam in
  let rec walk a surplus =
    if a < 0 || a >= n then None
    else
      let dead = Tcam.is_dead st.tcam a in
      match Tcam.read st.tcam a with
      | Tcam.Free when not dead ->
          if surplus >= 0 then Some a else walk (a + step) (surplus + 1)
      | Tcam.Free -> walk (a + step) surplus
      | Tcam.Used _ -> walk (a + step) (if dead then surplus - 1 else surplus)
  in
  walk from 0

(* Entry ids and writable addresses of [lo, hi], both in ascending
   address order.  In a minimal window there is exactly one more
   writable slot than there are entries. *)
let window_contents st ~lo ~hi =
  let entries = ref [] and writable = ref [] in
  for a = hi downto lo do
    if not (Tcam.is_dead st.tcam a) then writable := a :: !writable;
    match Tcam.read st.tcam a with
    | Tcam.Used id -> entries := id :: !entries
    | Tcam.Free -> ()
  done;
  (Array.of_list !entries, Array.of_list !writable)

(* Repack [pos, u]: the new entry lands on the lowest writable slot,
   every entry steps up to the next writable one.  Application order:
   topmost first, the new entry last. *)
let shift_up_ops st ~pos ~u ~rule_id =
  let entries, writable = window_contents st ~lo:pos ~hi:u in
  let ops = ref [ Op.insert ~rule_id ~addr:writable.(0) ] in
  for i = 0 to Array.length entries - 1 do
    relocate_entry st entries.(i);
    ops := Op.insert ~rule_id:entries.(i) ~addr:writable.(i + 1) :: !ops
  done;
  !ops

(* Mirror: repack [d, pos - 1]; the new entry lands on the highest
   writable slot, every entry steps down.  Application order:
   bottom-most first, the new entry last. *)
let shift_down_ops st ~pos ~d ~rule_id =
  let entries, writable = window_contents st ~lo:d ~hi:(pos - 1) in
  let k = Array.length entries in
  let moves = ref [] in
  for i = k - 1 downto 0 do
    relocate_entry st entries.(i);
    moves := Op.insert ~rule_id:entries.(i) ~addr:writable.(i) :: !moves
  done;
  !moves @ [ Op.insert ~rule_id ~addr:writable.(k) ]

(* Make room in the rank space: every entry with rank >= p moves up one. *)
let bump_ranks st p =
  let bumped = ref false in
  Hashtbl.iter
    (fun id q ->
      if q >= p then begin
        Hashtbl.replace st.prio id (q + 1);
        bumped := true
      end)
    (Hashtbl.copy st.prio);
  if !bumped then st.renumbers <- st.renumbers + 1

let schedule_insert st ~rule_id ~deps ~dependents =
  match Algo.fresh_request_check st.tcam ~rule_id with
  | Error _ as e -> e
  | Ok () -> (
      let missing =
        List.find_opt (fun id -> not (Tcam.mem st.tcam id)) (deps @ dependents)
      in
      match missing with
      | Some id -> Error (Printf.sprintf "constraint entry %d is not in the TCAM" id)
      | None ->
          let lo_p =
            List.fold_left (fun acc id -> max acc (prio_exn st id)) 0 dependents
          in
          let hi_p =
            List.fold_left
              (fun acc id -> min acc (prio_exn st id))
              (max_priority st + 1)
              deps
          in
          if hi_p <= lo_p then Error "contradictory priority constraints"
          else begin
            (* The new entry takes rank [hi_p]; everything at or above
               shifts one rank up. *)
            let pos =
              match first_at_or_above st hi_p with
              | Some a -> a
              | None -> (
                  match Tcam.highest_used st.tcam with
                  | Some top -> top + 1
                  | None -> 0)
            in
            let ops =
              if
                pos < Tcam.size st.tcam
                && Tcam.is_free st.tcam pos
                && not (Tcam.is_dead st.tcam pos)
              then Some [ Op.insert ~rule_id ~addr:pos ]
              else
                let up = grow_window st ~from:pos ~step:1 in
                let down =
                  if pos = 0 then None
                  else grow_window st ~from:(pos - 1) ~step:(-1)
                in
                match (up, down) with
                | None, None -> None
                | Some u, None -> Some (shift_up_ops st ~pos ~u ~rule_id)
                | None, Some d -> Some (shift_down_ops st ~pos ~d ~rule_id)
                | Some u, Some d ->
                    (* Fewest movements wins, ties go up (with no dead
                       rows both counts equal the spans the classic
                       comparison used). *)
                    let moves lo hi =
                      let c = ref 0 in
                      for a = lo to hi do
                        match Tcam.read st.tcam a with
                        | Tcam.Used _ -> incr c
                        | Tcam.Free -> ()
                      done;
                      !c
                    in
                    if moves pos u <= moves d (pos - 1) then
                      Some (shift_up_ops st ~pos ~u ~rule_id)
                    else Some (shift_down_ops st ~pos ~d ~rule_id)
            in
            match ops with
            | None -> Error "TCAM is full"
            | Some ops ->
                bump_ranks st hi_p;
                st.pending <- Commit { id = rule_id; p = hi_p };
                Ok ops
          end)

let schedule_delete st ~rule_id =
  match Tcam.addr_of st.tcam rule_id with
  | None -> Error (Printf.sprintf "entry %d is not in the TCAM" rule_id)
  | Some addr ->
      st.pending <- Remove rule_id;
      Ok [ Op.delete ~addr ]

let after_apply st (_ : Op.t list) =
  (match st.pending with
  | Commit { id; p } -> Hashtbl.replace st.prio id p
  | Remove id -> Hashtbl.remove st.prio id
  | Nothing -> ());
  st.pending <- Nothing

let algo st =
  {
    Algo.name = "naive";
    schedule_insert =
      (fun ~rule_id ~deps ~dependents -> schedule_insert st ~rule_id ~deps ~dependents);
    schedule_delete = (fun ~rule_id -> schedule_delete st ~rule_id);
    after_apply = (fun ops -> after_apply st ops);
  }
