module Rule = Fr_tern.Rule
module Ternary = Fr_tern.Ternary
module Agent = Fr_switch.Agent
module Rules_io = Fr_workload.Rules_io

(* -- line codec ------------------------------------------------------ *)

let action_to_string = function
  | Rule.Forward p -> Printf.sprintf "f%d" p
  | Rule.Drop -> "d"
  | Rule.Controller -> "c"

let action_of_string s =
  if s = "d" then Some Rule.Drop
  else if s = "c" then Some Rule.Controller
  else if String.length s >= 2 && s.[0] = 'f' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some p when p >= 0 -> Some (Rule.Forward p)
    | Some _ | None -> None
  else None

type entry =
  | Mod of { seq : int; fm : Agent.flow_mod }
  | Begin of { drain : int; upto : int }
  | Commit of { drain : int; upto : int; applied : int; failed : int }
  | Checkpoint of { upto : int; file : string }

let entry_to_string = function
  | Mod { seq; fm = Agent.Add r } ->
      Printf.sprintf "m %d a %d %d %s %s" seq r.Rule.id r.Rule.priority
        (action_to_string r.Rule.action)
        (Ternary.to_string r.Rule.field)
  | Mod { seq; fm = Agent.Remove { id } } -> Printf.sprintf "m %d r %d" seq id
  | Mod { seq; fm = Agent.Set_action { id; action } } ->
      Printf.sprintf "m %d s %d %s" seq id (action_to_string action)
  | Begin { drain; upto } -> Printf.sprintf "b %d %d" drain upto
  | Commit { drain; upto; applied; failed } ->
      Printf.sprintf "c %d %d %d %d" drain upto applied failed
  | Checkpoint { upto; file } -> Printf.sprintf "k %d %s" upto file

let entry_of_string line =
  let fields =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  let int_ s = int_of_string_opt s in
  match fields with
  | [ "m"; seq; "a"; id; prio; act; field ] -> (
      match (int_ seq, int_ id, int_ prio, action_of_string act) with
      | Some seq, Some id, Some priority, Some action -> (
          match Ternary.of_string field with
          | field ->
              Ok (Mod { seq; fm = Agent.Add (Rule.make ~id ~field ~action ~priority) })
          | exception Invalid_argument _ -> Error "malformed field")
      | _ -> Error "malformed add record")
  | [ "m"; seq; "r"; id ] -> (
      match (int_ seq, int_ id) with
      | Some seq, Some id -> Ok (Mod { seq; fm = Agent.Remove { id } })
      | _ -> Error "malformed remove record")
  | [ "m"; seq; "s"; id; act ] -> (
      match (int_ seq, int_ id, action_of_string act) with
      | Some seq, Some id, Some action ->
          Ok (Mod { seq; fm = Agent.Set_action { id; action } })
      | _ -> Error "malformed set-action record")
  | [ "b"; drain; upto ] -> (
      match (int_ drain, int_ upto) with
      | Some drain, Some upto -> Ok (Begin { drain; upto })
      | _ -> Error "malformed begin marker")
  | [ "c"; drain; upto; applied; failed ] -> (
      match (int_ drain, int_ upto, int_ applied, int_ failed) with
      | Some drain, Some upto, Some applied, Some failed ->
          Ok (Commit { drain; upto; applied; failed })
      | _ -> Error "malformed commit marker")
  | [ "k"; upto; file ] -> (
      match int_ upto with
      | Some upto -> Ok (Checkpoint { upto; file })
      | None -> Error "malformed checkpoint marker")
  | _ -> Error (Printf.sprintf "unrecognised record %S" line)

(* -- directory layout ------------------------------------------------ *)

let magic = "fastrule-resil-journal v1"
let meta_magic = "fastrule-resil-meta v1"
let dir_file ~dir ~shard = Filename.concat dir (Printf.sprintf "shard-%d.wal" shard)
let meta_file ~dir = Filename.concat dir "meta"

let ckpt_basename ~shard ~upto = Printf.sprintf "shard-%d-ckpt-%d.rules" shard upto
let ckpt_prefix ~shard = Printf.sprintf "shard-%d-ckpt-" shard

(* [Some upto] when [name] is one of this shard's checkpoint tables. *)
let ckpt_upto_of_name ~shard name =
  let prefix = ckpt_prefix ~shard in
  let plen = String.length prefix in
  let ext = ".rules" in
  if
    String.length name > plen + String.length ext
    && String.sub name 0 plen = prefix
    && Filename.check_suffix name ext
  then int_of_string_opt (String.sub name plen (String.length name - plen - String.length ext))
  else None

let list_checkpoints ~dir ~shard =
  (try Sys.readdir dir with Sys_error _ -> [||])
  |> Array.to_list
  |> List.filter_map (fun name ->
         match ckpt_upto_of_name ~shard name with
         | Some upto -> Some (upto, name)
         | None -> None)
  |> List.sort (fun (a, _) (b, _) -> compare b a)

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ())
  end

let fresh_dir ~prefix =
  let stamp = Filename.temp_file prefix "" in
  Sys.remove stamp;
  Sys.mkdir stamp 0o700;
  stamp

type meta = {
  shards : int;
  capacity : int;
  policy : string;
  kind : string;
  verify : bool;
}

let write_meta ~dir m =
  ensure_dir dir;
  let path = meta_file ~dir in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Printf.fprintf oc "%s\nshards %d\ncapacity %d\npolicy %s\nkind %s\nverify %b\n"
    meta_magic m.shards m.capacity m.policy m.kind m.verify;
  close_out oc;
  Sys.rename tmp path

let read_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      Ok text

let read_meta ~dir =
  let ( let* ) = Result.bind in
  let* text = read_file (meta_file ~dir) in
  let tbl = Hashtbl.create 8 in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  match lines with
  | m :: rest when m = meta_magic ->
      List.iter
        (fun l ->
          match String.index_opt l ' ' with
          | Some i ->
              Hashtbl.replace tbl (String.sub l 0 i)
                (String.sub l (i + 1) (String.length l - i - 1))
          | None -> ())
        rest;
      let get k =
        match Hashtbl.find_opt tbl k with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "journal meta: missing %s" k)
      in
      let get_positive k =
        let* v = get k in
        match int_of_string_opt v with
        | Some i when i >= 1 -> Ok i
        | Some i -> Error (Printf.sprintf "journal meta: bad %s %d" k i)
        | None -> Error (Printf.sprintf "journal meta: bad %s %S" k v)
      in
      (* Older metas also carry a [refresh_every] line, the removed
         deferred-refresh knob; it is ignored like any other unknown key. *)
      let* shards = get_positive "shards" in
      let* capacity = get_positive "capacity" in
      let* policy = get "policy" in
      let* kind = get "kind" in
      let* verify_s = get "verify" in
      let* verify =
        match bool_of_string_opt verify_s with
        | Some b -> Ok b
        | None -> Error (Printf.sprintf "journal meta: bad verify %S" verify_s)
      in
      Ok { shards; capacity; policy; kind; verify }
  | m :: _ ->
      Error (Printf.sprintf "journal meta: bad magic %S (want %S)" m meta_magic)
  | [] -> Error "journal meta: empty file"

(* One directory listing, so a meta claiming a huge shard count costs
   nothing: the WALs present must be exactly shard-0 .. shard-(n-1). *)
let check_shards ~dir (m : meta) =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | names ->
      let wals =
        Array.fold_left
          (fun acc name ->
            match Scanf.sscanf_opt name "shard-%u.wal%!" Fun.id with
            | Some s when Filename.basename (dir_file ~dir ~shard:s) = name ->
                s :: acc
            | Some _ | None -> acc)
          [] names
      in
      let n = List.length wals in
      if n = m.shards && List.for_all (fun s -> s < m.shards) wals then Ok ()
      else
        Error
          (Printf.sprintf
             "journal meta: shards %d disagrees with the %d shard WAL(s) in %s \
              (want shard-0.wal .. shard-%d.wal)"
             m.shards n dir (m.shards - 1))

(* -- writer ---------------------------------------------------------- *)

type t = {
  dir : string;
  shard : int;
  path : string;
  mutable oc : out_channel;
  mutable next_seq : int;
  mutable next_drain : int;
}

let header_lines ~shard = Printf.sprintf "%s\nshard %d\n" magic shard

let create ~dir ~shard =
  ensure_dir dir;
  let path = dir_file ~dir ~shard in
  let oc = open_out path in
  output_string oc (header_lines ~shard);
  flush oc;
  { dir; shard; path; oc; next_seq = 1; next_drain = 1 }

let reopen ~dir ~shard ~next_seq ~next_drain =
  let path = dir_file ~dir ~shard in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  { dir; shard; path; oc; next_seq; next_drain }

let path t = t.path
let dir t = t.dir
let last_seq t = t.next_seq - 1
let sync t = flush t.oc
let append t e = output_string t.oc (entry_to_string e ^ "\n")

let log_mod t fm =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  append t (Mod { seq; fm });
  seq

let log_begin t =
  let drain = t.next_drain in
  t.next_drain <- drain + 1;
  append t (Begin { drain; upto = last_seq t });
  sync t;
  drain

let log_commit t ~drain ~applied ~failed =
  append t (Commit { drain; upto = last_seq t; applied; failed });
  sync t

let checkpoint ?(retain = 1) t ~rules =
  let retain = max 1 retain in
  let upto = last_seq t in
  let file = ckpt_basename ~shard:t.shard ~upto in
  Rules_io.save (Filename.concat t.dir file) rules;
  (* Compact: the new journal is just the header plus the marker.  The
     rename is the commit point; a crash before it leaves the previous
     journal (and its checkpoint) fully intact. *)
  close_out t.oc;
  let tmp = t.path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (header_lines ~shard:t.shard);
  output_string oc (entry_to_string (Checkpoint { upto; file }) ^ "\n");
  close_out oc;
  Sys.rename tmp t.path;
  t.oc <- open_out_gen [ Open_wronly; Open_append ] 0o644 t.path;
  (* GC checkpoint tables beyond the retention window (newest [retain]
     survive, recovery only ever reads the newest), best-effort. *)
  List.iteri
    (fun i (_, name) ->
      if i >= retain then
        try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ())
    (list_checkpoints ~dir:t.dir ~shard:t.shard)

let close t = close_out t.oc

(* -- recovery reader ------------------------------------------------- *)

type committed = { drain : int; upto : int; applied : int; failed : int }

type recovery = {
  shard : int;
  checkpoint : (int * string) option;
  committed : committed list;
  mods : (int * Agent.flow_mod) list;
  interrupted : bool;
  next_seq : int;
  next_drain : int;
}

(* Parse every line, dropping a torn tail: a crash mid-append can leave
   one partial final line, which is not corruption.  A bad line followed
   by good ones is. *)
let parse_entries ~path lines =
  let arr = Array.of_list lines in
  let n = Array.length arr in
  let is_blank i = String.trim arr.(i) = "" in
  let rec last_content i = if i < 0 then -1 else if is_blank i then last_content (i - 1) else i in
  let last = last_content (n - 1) in
  let rec go i acc =
    if i > last then Ok (List.rev acc)
    else if is_blank i then go (i + 1) acc
    else
      match entry_of_string arr.(i) with
      | Ok e -> go (i + 1) (e :: acc)
      | Error msg ->
          if i = last then Ok (List.rev acc) (* torn tail *)
          else Error (Printf.sprintf "%s: line %d: %s" path (i + 3) msg)
  in
  go 0 []

let read_recovery ~dir ~shard =
  let ( let* ) = Result.bind in
  let path = dir_file ~dir ~shard in
  let* text = read_file path in
  let lines = String.split_on_char '\n' text in
  match lines with
  | m :: s :: rest when m = magic ->
      let* () =
        if String.trim s = Printf.sprintf "shard %d" shard then Ok ()
        else Error (Printf.sprintf "%s: shard header mismatch %S" path s)
      in
      let* entries = parse_entries ~path rest in
      let checkpoint = ref None in
      let committed = ref [] in
      let mods = ref [] in
      let open_begin = ref None in
      let max_seq = ref 0 in
      let max_drain = ref 0 in
      List.iter
        (fun e ->
          match e with
          | Mod { seq; fm } ->
              if seq > !max_seq then max_seq := seq;
              mods := (seq, fm) :: !mods
          | Begin { drain; upto = _ } ->
              if drain > !max_drain then max_drain := drain;
              open_begin := Some drain
          | Commit { drain; upto; applied; failed } ->
              if drain > !max_drain then max_drain := drain;
              if upto > !max_seq then max_seq := upto;
              open_begin := None;
              committed := { drain; upto; applied; failed } :: !committed
          | Checkpoint { upto; file } ->
              if upto > !max_seq then max_seq := upto;
              checkpoint := Some (upto, Filename.concat dir file);
              committed :=
                List.filter (fun (c : committed) -> c.upto > upto) !committed;
              mods := List.filter (fun (seq, _) -> seq > upto) !mods;
              open_begin := None)
        entries;
      let floor = match !checkpoint with Some (u, _) -> u | None -> 0 in
      Ok
        {
          shard;
          checkpoint = !checkpoint;
          committed = List.rev !committed;
          mods =
            List.filter (fun (seq, _) -> seq > floor) !mods
            |> List.sort (fun (a, _) (b, _) -> compare a b);
          interrupted = !open_begin <> None;
          next_seq = !max_seq + 1;
          next_drain = !max_drain + 1;
        }
  | m :: _ when m <> magic ->
      Error (Printf.sprintf "%s: bad magic %S (want %S)" path m magic)
  | _ -> Error (Printf.sprintf "%s: truncated header" path)

(* -- observability ---------------------------------------------------- *)

type stat = {
  shard : int;
  wal_bytes : int;
  wal_age_s : float;
  checkpoints : (int * string * int) list;  (* upto, file, bytes; newest first *)
  total_drains : int;
  committed_drains : int;  (* committed since the last checkpoint *)
  pending_mods : int;
  interrupted : bool;
}

let stat ~dir ~shard =
  let ( let* ) = Result.bind in
  let* r = read_recovery ~dir ~shard in
  let path = dir_file ~dir ~shard in
  let* st =
    try Ok (Unix.stat path)
    with Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  in
  let now = Unix.gettimeofday () in
  let checkpoints =
    list_checkpoints ~dir ~shard
    |> List.map (fun (upto, name) ->
           let bytes =
             try (Unix.stat (Filename.concat dir name)).Unix.st_size
             with Unix.Unix_error _ -> 0
           in
           (upto, name, bytes))
  in
  let committed_floor =
    List.fold_left
      (fun acc (c : committed) -> max acc c.upto)
      (match r.checkpoint with Some (u, _) -> u | None -> 0)
      r.committed
  in
  Ok
    {
      shard;
      wal_bytes = st.Unix.st_size;
      wal_age_s = Float.max 0.0 (now -. st.Unix.st_mtime);
      checkpoints;
      total_drains = r.next_drain - 1;
      committed_drains = List.length r.committed;
      pending_mods =
        List.length (List.filter (fun (seq, _) -> seq > committed_floor) r.mods);
      interrupted = r.interrupted;
    }
