module Tcam = Fr_tcam.Tcam
module Op = Fr_tcam.Op

type state = {
  graph : Fr_dag.Graph.t;
  tcam : Tcam.t;
  store : Store.t;
  dir : Dir.t;
  (* Entries whose metric must be revisited at the next [after_apply] even
     though their own address kept its occupant (set by schedule_delete). *)
  mutable pending_ids : int list;
}

let create ?(backend = Store.Bit_backend) ?(dir = Dir.Up) ~graph ~tcam () =
  {
    graph;
    tcam;
    store = Store.create ~backend ~dir graph tcam;
    dir;
    pending_ids = [];
  }

let store st = st.store

let schedule_chain st ~rule_id ~lo ~hi =
  let rec loop f lo hi steps acc =
    if steps > Tcam.size st.tcam then
      Error "displacement chain exceeded the TCAM size (invariant violation)"
    else
      match Store.min_in st.store ~lo ~hi with
      | None -> Error "no feasible address: candidate window is empty"
      | Some (a, _metric) -> (
          let acc = Op.insert ~rule_id:f ~addr:a :: acc in
          match Tcam.read st.tcam a with
          | Tcam.Free -> Ok acc
          | Tcam.Used occupant ->
              let lo', hi' =
                match st.dir with
                | Dir.Up -> (a + 1, Dir.bound Dir.Up st.graph st.tcam occupant)
                | Dir.Down -> (Dir.bound Dir.Down st.graph st.tcam occupant, a - 1)
              in
              loop occupant lo' hi' (steps + 1) acc)
  in
  loop rule_id lo hi 0 []

let schedule_insert st ~rule_id ~deps ~dependents =
  match Algo.fresh_request_check st.tcam ~rule_id with
  | Error _ as e -> e
  | Ok () -> (
      match Algo.insert_window st.tcam ~deps ~dependents with
      | Error _ as e -> e
      | Ok (lo, hi) -> (
          (* The candidate range includes the displaceable constraint slot
             on the free-pool side: the dependency's for upward chains, the
             dependent's for downward ones. *)
          match st.dir with
          | Dir.Up ->
              schedule_chain st ~rule_id ~lo:(lo + 1)
                ~hi:(min hi (Tcam.size st.tcam - 1))
          | Dir.Down -> schedule_chain st ~rule_id ~lo:(max 0 lo) ~hi:(hi - 1)))

let schedule_delete st ~rule_id =
  match Tcam.addr_of st.tcam rule_id with
  | None -> Error (Printf.sprintf "entry %d is not in the TCAM" rule_id)
  | Some addr ->
      (* The node disappears from the graph before [after_apply] runs, so
         capture the neighbours whose chains read it now. *)
      let affected = ref [] in
      Dir.propagation_targets st.dir st.graph rule_id (fun x ->
          affected := x :: !affected);
      st.pending_ids <- !affected;
      Ok [ Op.delete ~addr ]

let after_apply st ops =
  let addrs = List.map Op.addr ops in
  let ids = st.pending_ids in
  st.pending_ids <- [];
  Store.refresh st.store ~addrs ~ids

let algo st =
  {
    Algo.name = Printf.sprintf "fr-o/%s" (Store.backend_to_string (Store.backend st.store));
    schedule_insert =
      (fun ~rule_id ~deps ~dependents -> schedule_insert st ~rule_id ~deps ~dependents);
    schedule_delete = (fun ~rule_id -> schedule_delete st ~rule_id);
    after_apply = (fun ops -> after_apply st ops);
  }
