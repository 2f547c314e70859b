type slot = Image.slot = Free | Used of int

(* The published image is the only slot state.  The writer keeps one
   private index beside it, where each id sits (move semantics), and asks
   its owner's resolver which payload a written id carries. *)
type t = {
  size : int;
  addrs : (int, int) Hashtbl.t;  (* rule id -> address *)
  payload : int -> Fr_tern.Rule.t option;  (* the owner's rule id -> rule *)
  mutable ops : int;
  mutable moves : int;
  mutable dead : Deadmap.t;  (* discovered broken rows; empty on healthy hw *)
  mutable image : Image.t;
  mutable publisher : (Image.t -> unit) option;
}

let create ?(payload = fun _ -> None) ~size () =
  if size <= 0 then invalid_arg "Tcam.create: size must be positive";
  {
    size;
    addrs = Hashtbl.create 16;
    payload;
    ops = 0;
    moves = 0;
    dead = Deadmap.create ~size ();
    image = Image.create ~size;
    publisher = None;
  }

let image t = t.image
let set_publisher t f = t.publisher <- f

let publish t img =
  t.image <- img;
  match t.publisher with Some f -> f img | None -> ()

let size t = t.size
let used_count t = Image.entry_count t.image
let free_count t = size t - used_count t

let check_addr t addr =
  if addr < 0 || addr >= size t then invalid_arg "Tcam: address out of range"

let read t addr =
  check_addr t addr;
  Image.read t.image addr

let is_free t addr =
  check_addr t addr;
  Image.is_free t.image addr

let addr_of t id = Hashtbl.find_opt t.addrs id
let mem t id = Hashtbl.mem t.addrs id

let write t ~rule_id ~addr =
  (match read t addr with
  | Used id when id <> rule_id ->
      invalid_arg
        (Printf.sprintf "Tcam.write: address 0x%x already holds entry %d" addr id)
  | Free | Used _ -> ());
  let payload = t.payload rule_id in
  let img =
    match Hashtbl.find_opt t.addrs rule_id with
    | Some old when old <> addr ->
        t.moves <- t.moves + 1;
        Image.move t.image ~src:old ~dst:addr ~id:rule_id payload
    | Some _ | None -> Image.write t.image ~addr ~id:rule_id payload
  in
  Hashtbl.replace t.addrs rule_id addr;
  t.ops <- t.ops + 1;
  (* A write that reached the hardware proves the row works: clear any
     strikes (and revive the row if a spurious mark had condemned it). *)
  if not (Deadmap.is_empty t.dead) then
    ignore (Deadmap.note_success t.dead ~addr);
  publish t img

let erase t ~addr =
  (match read t addr with
  | Used id -> Hashtbl.remove t.addrs id
  | Free -> ());
  t.ops <- t.ops + 1;
  publish t (Image.erase t.image ~addr)

let load t placed =
  if used_count t <> 0 then invalid_arg "Tcam.load: table is not empty";
  Array.iter
    (fun (rule_id, addr) ->
      check_addr t addr;
      if Hashtbl.mem t.addrs rule_id then
        invalid_arg (Printf.sprintf "Tcam.load: entry %d placed twice" rule_id);
      Hashtbl.replace t.addrs rule_id addr;
      if not (Deadmap.is_empty t.dead) then
        ignore (Deadmap.note_success t.dead ~addr))
    placed;
  publish t (Image.fill t.image placed t.payload)

let apply_sequence t ops =
  List.iter
    (function
      | Op.Insert { rule_id; addr } -> write t ~rule_id ~addr
      | Op.Delete { addr } -> erase t ~addr)
    ops

let ops_issued t = t.ops
let moves_issued t = t.moves

let reset_counters t =
  t.ops <- 0;
  t.moves <- 0

let iter_used t f = Image.iter t.image f

let used_ids t =
  Image.fold t.image ~init:[] ~f:(fun acc ~addr:_ ~rule_id -> rule_id :: acc)
  |> List.rev

let first_used t p = Image.find_first t.image p
let highest_used t = Image.find_last t.image (fun _ -> true)

let lowest_free t =
  let n = size t in
  let rec go a = if a >= n then None else if is_free t a then Some a else go (a + 1) in
  go 0

let lookup t ~rules packet =
  match Image.find_last t.image (fun id -> Fr_tern.Rule.matches_packet (rules id) packet) with
  | Some addr -> ( match read t addr with Used id -> Some id | Free -> None)
  | None -> None

let check_dag_order t g =
  let bad = ref None in
  Fr_dag.Graph.iter_nodes g (fun u ->
      match addr_of t u with
      | None -> ()
      | Some au ->
          Fr_dag.Graph.iter_deps g u (fun v ->
              match addr_of t v with
              | None -> ()
              | Some av ->
                  if au >= av && !bad = None then
                    bad :=
                      Some
                        (Printf.sprintf
                           "entry %d at 0x%x must sit below entry %d at 0x%x" u au
                           v av)));
  match !bad with None -> Ok () | Some msg -> Error msg

let deadmap t = t.dead
let is_dead t addr = Deadmap.is_dead t.dead addr
let dead_count t = Deadmap.count t.dead

let note_write_failure t ~addr =
  check_addr t addr;
  Deadmap.note_failure t.dead ~addr

let adopt_deadmap t dead =
  if Deadmap.size dead <> size t then
    invalid_arg "Tcam.adopt_deadmap: size mismatch";
  t.dead <- dead

let writable_free_in t ~lo ~hi =
  let lo = max lo 0 and hi = min hi (size t - 1) in
  let rec go a =
    if a > hi then None
    else if is_free t a && not (Deadmap.is_dead t.dead a) then Some a
    else go (a + 1)
  in
  go lo

(* The image is shared (it is immutable), but the copy never publishes:
   Check.sequence simulates candidate sequences on a copy and those
   phantom states must not reach readers. *)
let copy t =
  {
    t with
    addrs = Hashtbl.copy t.addrs;
    dead = Deadmap.copy t.dead;
    publisher = None;
  }

(* The writer's index against the image: every indexed id sits in the
   slot the index names, carrying exactly the payload its resolver gives
   (or none), and the image holds no other entry. *)
let image_consistent t =
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  Hashtbl.iter
    (fun id addr ->
      match Image.read t.image addr with
      | Used id' when id' = id -> (
          match (t.payload id, Image.rule_at t.image addr) with
          | Some r, Some r' when r == r' -> ()
          | None, None -> ()
          | _ ->
              fail
                (Printf.sprintf "entry %d at 0x%x carries a stale payload" id addr))
      | Used id' ->
          fail
            (Printf.sprintf "index puts entry %d at 0x%x but the image holds %d"
               id addr id')
      | Free ->
          fail
            (Printf.sprintf "index puts entry %d at 0x%x but the image slot is free"
               id addr))
    t.addrs;
  if Image.entry_count t.image <> Hashtbl.length t.addrs then
    fail
      (Printf.sprintf "image holds %d entries but the index holds %d"
         (Image.entry_count t.image) (Hashtbl.length t.addrs));
  match !err with None -> Ok () | Some msg -> Error msg

let unsafe_set_addr t ~rule_id ~addr = Hashtbl.replace t.addrs rule_id addr

let pp ppf t =
  for a = size t - 1 downto 0 do
    match read t a with
    | Used id -> Format.fprintf ppf "0x%x: %d@." a id
    | Free -> Format.fprintf ppf "0x%x: -@." a
  done
