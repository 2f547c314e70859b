module Rule = Fr_tern.Rule
module Header = Fr_tern.Header
module Graph = Fr_dag.Graph
module Build = Fr_dag.Build
module Topo = Fr_dag.Topo

type t = {
  mutable sorted : Rule.t array;
      (* precedence-descending: scan answers at the first match *)
  by_id : (int, Rule.t) Hashtbl.t;
  graph : Graph.t;
  mutable lookups : int;
}

(* Same tie-break as Agent.semantic_lookup and the compiler: higher
   priority wins, equal priorities go to the lower id. *)
let beats (a : Rule.t) (b : Rule.t) =
  a.Rule.priority > b.Rule.priority
  || (a.Rule.priority = b.Rule.priority && a.Rule.id < b.Rule.id)

let cmp a b = if beats a b then -1 else if beats b a then 1 else 0

let of_rules rules =
  let by_id = Hashtbl.create (max 16 (Array.length rules)) in
  Array.iter
    (fun (r : Rule.t) ->
      if Hashtbl.mem by_id r.Rule.id then
        invalid_arg
          (Printf.sprintf "Backing.of_rules: duplicate id %d" r.Rule.id);
      Hashtbl.replace by_id r.Rule.id r)
    rules;
  let sorted = Array.copy rules in
  Array.sort cmp sorted;
  { sorted; by_id; graph = Build.compile_fast rules; lookups = 0 }

let size t = Hashtbl.length t.by_id
let rule t id = Hashtbl.find_opt t.by_id id
let mem t id = Hashtbl.mem t.by_id id
let rules t = Hashtbl.fold (fun _ r acc -> r :: acc) t.by_id []
let graph t = t.graph

let lookup t pkt =
  t.lookups <- t.lookups + 1;
  let n = Array.length t.sorted in
  let rec scan i =
    if i >= n then None
    else
      let r = t.sorted.(i) in
      if Rule.matches_packet r pkt then Some r else scan (i + 1)
  in
  scan 0

let lookups t = t.lookups

let insert t r =
  if Hashtbl.mem t.by_id r.Rule.id then
    Error (Printf.sprintf "duplicate id %d" r.Rule.id)
  else begin
    Build.insert t.graph ~existing:(rules t) r;
    Hashtbl.replace t.by_id r.Rule.id r;
    let n = Array.length t.sorted in
    let out = Array.make (n + 1) r in
    let j = ref 0 in
    while !j < n && beats t.sorted.(!j) r do incr j done;
    Array.blit t.sorted 0 out 0 !j;
    out.(!j) <- r;
    Array.blit t.sorted !j out (!j + 1) (n - !j);
    t.sorted <- out;
    Ok ()
  end

let remove t id =
  if not (Hashtbl.mem t.by_id id) then Error (Printf.sprintf "unknown id %d" id)
  else begin
    Build.remove ~contract:true t.graph id;
    Hashtbl.remove t.by_id id;
    t.sorted <- Array.of_seq (Seq.filter (fun (r : Rule.t) -> r.Rule.id <> id) (Array.to_seq t.sorted));
    Ok ()
  end

let set_action t id action =
  match Hashtbl.find_opt t.by_id id with
  | None -> Error (Printf.sprintf "unknown id %d" id)
  | Some r ->
      let r' = Rule.with_action r action in
      Hashtbl.replace t.by_id id r';
      Array.iteri
        (fun i (x : Rule.t) -> if x.Rule.id = id then t.sorted.(i) <- r')
        t.sorted;
      Ok ()

let check_known t id fn =
  if not (Hashtbl.mem t.by_id id) then
    invalid_arg (Printf.sprintf "Backing.%s: unknown id %d" fn id)

let admission_closure t id =
  check_known t id "admission_closure";
  Rule.Id_set.add id (Topo.descendants t.graph id)

let eviction_closure t id ~cached =
  check_known t id "eviction_closure";
  Rule.Id_set.add id
    (Rule.Id_set.filter
       (fun a -> Rule.Id_set.mem a cached)
       (Topo.ancestors t.graph id))

let topo_ranks t =
  match Topo.toposort t.graph with
  | None -> invalid_arg "Backing.topo_ranks: graph is cyclic"
  | Some order ->
      let ranks = Hashtbl.create (max 16 (List.length order)) in
      List.iteri (fun i id -> Hashtbl.replace ranks id i) order;
      ranks
