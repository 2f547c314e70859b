module Journal = Fr_resil.Journal

type fault =
  | Crash of { at : int; mid_drain : bool }
  | Slow of { shards : int; shard : int; ms : float }
  | Stuck of { shards : int; shard : int; frac : float }

let mode = function
  | Crash _ -> "crash"
  | Slow _ -> "failover"
  | Stuck _ -> "degraded"

type info = { fault : fault; batch : int; probes : int }

let meta_name = "bundle.meta"
let trace_name = "trace"
let journal_subdir = "journal"
let magic = "fastrule-bundle 1"

let is_bundle dir =
  Sys.file_exists dir
  && Sys.is_directory dir
  && Sys.file_exists (Filename.concat dir meta_name)
  && Sys.file_exists (Filename.concat dir trace_name)

let journal_dir dir =
  let j = Filename.concat dir journal_subdir in
  if Sys.file_exists j && Sys.is_directory j then Some j else None

let trace_file dir = Filename.concat dir trace_name

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* Shortest decimal that reads back as the same float, so a bundle
   replays the exact fraction (and hence the exact stuck bank). *)
let float_repr x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let info_to_string i =
  let fault_keys =
    match i.fault with
    | Crash { at; mid_drain } ->
        [ "at " ^ string_of_int at; "mid_drain " ^ string_of_bool mid_drain ]
    | Slow { shards; shard; ms } ->
        [
          "shards " ^ string_of_int shards;
          "fault_shard " ^ string_of_int shard;
          "slow_ms " ^ float_repr ms;
        ]
    | Stuck { shards; shard; frac } ->
        [
          "shards " ^ string_of_int shards;
          "fault_shard " ^ string_of_int shard;
          "dead_frac " ^ float_repr frac;
        ]
  in
  String.concat "\n"
    ([ magic; "mode " ^ mode i.fault ]
    @ fault_keys
    @ [
        "batch " ^ string_of_int i.batch;
        "probes " ^ string_of_int i.probes;
        "";
      ])

let info_of_string s =
  match String.split_on_char '\n' s with
  | header :: rest when String.trim header = magic ->
      let fields = Hashtbl.create 8 in
      List.iter
        (fun line ->
          match String.index_opt line ' ' with
          | Some i ->
              Hashtbl.replace fields
                (String.sub line 0 i)
                (String.trim
                   (String.sub line (i + 1) (String.length line - i - 1)))
          | None -> ())
        rest;
      (* A key a bundle lacks takes the value every writer used before it
         was recorded: 8 probes, a 10% stuck bank, 8 ms/op. *)
      let get name parse fallback =
        match Hashtbl.find_opt fields name with
        | None -> Ok fallback
        | Some v -> (
            match parse v with
            | Some x -> Ok x
            | None -> Error (Printf.sprintf "bundle: bad %s %S" name v))
      in
      let ( let* ) = Result.bind in
      let* batch = get "batch" int_of_string_opt 4 in
      let* probes = get "probes" int_of_string_opt 8 in
      let* shards = get "shards" int_of_string_opt 3 in
      let* shard = get "fault_shard" int_of_string_opt 0 in
      let* fault =
        match Hashtbl.find_opt fields "mode" with
        | None | Some "crash" ->
            let* at = get "at" int_of_string_opt 0 in
            let* mid_drain = get "mid_drain" bool_of_string_opt false in
            Ok (Crash { at; mid_drain })
        | Some "failover" ->
            let* ms = get "slow_ms" float_of_string_opt 8.0 in
            Ok (Slow { shards; shard; ms })
        | Some "degraded" ->
            let* frac = get "dead_frac" float_of_string_opt 0.10 in
            Ok (Stuck { shards; shard; frac })
        | Some m -> Error (Printf.sprintf "bundle: unknown mode %S" m)
      in
      Ok { fault; batch; probes }
  | _ -> Error "bundle: missing fastrule-bundle header"

let write ~dir info ~trace ~journal =
  Journal.ensure_dir dir;
  Trace.save trace (trace_file dir);
  Out_channel.with_open_text (Filename.concat dir meta_name) (fun oc ->
      Out_channel.output_string oc (info_to_string info));
  (match journal with
  | Some jdir when Sys.file_exists jdir && Sys.is_directory jdir ->
      let dst = Filename.concat dir journal_subdir in
      Journal.ensure_dir dst;
      Array.iter
        (fun f ->
          let src = Filename.concat jdir f in
          if not (Sys.is_directory src) then
            copy_file src (Filename.concat dst f))
        (Sys.readdir jdir)
  | Some _ | None -> ());
  dir

let load dir =
  if not (is_bundle dir) then
    Error (Printf.sprintf "bundle: %s is not a divergence bundle" dir)
  else
    let ( let* ) = Result.bind in
    let* meta =
      try
        Ok
          (In_channel.with_open_text (Filename.concat dir meta_name)
             In_channel.input_all)
      with Sys_error e -> Error ("bundle: " ^ e)
    in
    let* info = info_of_string meta in
    let* trace = Trace.load (trace_file dir) in
    Ok (info, trace)

let pp_info ppf i =
  Format.fprintf ppf "%s bundle: " (mode i.fault);
  (match i.fault with
  | Crash { at; mid_drain } ->
      Format.fprintf ppf "at %d%s" at (if mid_drain then " (mid-drain)" else "")
  | Slow { shards; shard; ms } ->
      Format.fprintf ppf "%d shards, fault shard %d, slow %g ms/op" shards
        shard ms
  | Stuck { shards; shard; frac } ->
      Format.fprintf ppf "%d shards, fault shard %d, dead fraction %g" shards
        shard frac);
  Format.fprintf ppf "; batch %d, %d probes" i.batch i.probes
