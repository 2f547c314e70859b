module Id_set = Fr_tern.Rule.Id_set

type kind = Lru | Fdrc of { admit_after : int }

let kind_to_string = function
  | Lru -> "lru"
  | Fdrc { admit_after } -> Printf.sprintf "fdrc:%d" admit_after

let kind_of_string s =
  match String.lowercase_ascii s with
  | "lru" -> Some Lru
  | "fdrc" -> Some (Fdrc { admit_after = 2 })
  | s when String.length s > 5 && String.sub s 0 5 = "fdrc:" -> (
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some k when k >= 1 -> Some (Fdrc { admit_after = k })
      | _ -> None)
  | _ -> None

type stats = { mutable last_tick : int; mutable hits : int; mutable misses : int }

type t = { kind : kind; table : (int, stats) Hashtbl.t }

let create kind = { kind; table = Hashtbl.create 256 }
let kind t = t.kind

let get t id =
  match Hashtbl.find_opt t.table id with
  | Some s -> s
  | None ->
      let s = { last_tick = 0; hits = 0; misses = 0 } in
      Hashtbl.replace t.table id s;
      s

let touch t ~id ~tick =
  let s = get t id in
  s.last_tick <- tick;
  s.hits <- s.hits + 1

let note_miss t ~id ~tick =
  let s = get t id in
  s.last_tick <- tick;
  s.misses <- s.misses + 1

let should_admit t ~id =
  match t.kind with
  | Lru -> true
  | Fdrc { admit_after } -> (
      match Hashtbl.find_opt t.table id with
      | None -> false
      | Some s -> s.misses >= admit_after)

let score t ~id =
  match Hashtbl.find_opt t.table id with
  | None -> 0.0
  | Some s -> (
      match t.kind with
      | Lru -> float_of_int s.last_tick
      | Fdrc _ -> float_of_int (s.hits + s.misses))

let victims t ~candidates ~group_of ~protect ~need ~limit =
  (* Coldest-first by the candidate's own score.  A group's effective
     temperature is its hottest member, checked when the group is
     considered; since own-score <= group-score, once the sweep reaches
     candidates at or above [limit] nothing further can qualify. *)
  let order =
    List.sort
      (fun a b -> Float.compare (score t ~id:a) (score t ~id:b))
      candidates
  in
  let chosen = ref Id_set.empty in
  let freed = ref 0 in
  let rec take = function
    | [] -> ()
    | _ when !freed >= need -> ()
    | c :: rest ->
        if score t ~id:c >= limit then ()
        else begin
          (if not (Id_set.mem c !chosen) then
             let group = group_of c in
             let hottest =
               Id_set.fold (fun m acc -> Float.max acc (score t ~id:m)) group 0.0
             in
             if
               hottest < limit
               && Id_set.is_empty (Id_set.inter group protect)
             then begin
               chosen := Id_set.union !chosen group;
               freed := Id_set.cardinal !chosen
             end);
          take rest
        end
  in
  take order;
  if !freed >= need then Some !chosen else None
