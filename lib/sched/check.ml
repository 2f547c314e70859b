module Tcam = Fr_tcam.Tcam
module Op = Fr_tcam.Op

let sequence graph tcam ops =
  let sim = Tcam.copy tcam in
  (* Each simulated op is a publication point on the real table: besides
     the dependency invariant, the image the op would publish must agree
     with the writer's id -> address index, so readers of the snapshot
     see exactly this committed-prefix state. *)
  let publication i describe k =
    match Tcam.check_dag_order sim graph with
    | Error msg ->
        Error
          (Printf.sprintf "op %d %s breaks dependency order: %s" i (describe ())
             msg)
    | Ok () -> (
        match Tcam.image_consistent sim with
        | Error msg ->
            Error
              (Printf.sprintf "op %d %s desyncs the published image: %s" i
                 (describe ()) msg)
        | Ok () -> k ())
  in
  let rec go i = function
    | [] -> Ok ()
    | op :: rest -> (
        let describe () = Format.asprintf "%a" Op.pp op in
        match op with
        | Op.Insert { rule_id; addr } -> (
            (match Tcam.read sim addr with
            | Tcam.Used id when id <> rule_id ->
                Error
                  (Printf.sprintf "op %d %s overwrites live entry %d" i
                     (describe ()) id)
            | Tcam.Used _ | Tcam.Free -> Ok ())
            |> function
            | Error _ as e -> e
            | Ok () ->
                Tcam.write sim ~rule_id ~addr;
                publication i describe (fun () -> go (i + 1) rest))
        | Op.Delete { addr } ->
            Tcam.erase sim ~addr;
            publication i describe (fun () -> go (i + 1) rest))
  in
  go 0 ops

let apply_verified graph tcam ops =
  match sequence graph tcam ops with
  | Ok () ->
      Tcam.apply_sequence tcam ops;
      Ok ()
  | Error _ as e -> e
