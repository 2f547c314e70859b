module Rule = Fr_tern.Rule
module Id_set = Rule.Id_set

(* Deterministic precedence: priority first, then id (smaller id wins ties).
   "a beats b" = a is matched first = a must sit at the higher address. *)
let beats (a : Rule.t) (b : Rule.t) =
  a.priority > b.priority || (a.priority = b.priority && a.id < b.id)

(* Of the candidate dependency targets [s] (all of which must end up above
   the new rule), keep only those not already forced transitively: drop any
   candidate reachable from another candidate via dependency edges. *)
let minimal_targets g s =
  let covered = ref Id_set.empty in
  let mark_descendants j =
    let stack = Stack.create () in
    Graph.iter_deps g j (fun v -> Stack.push v stack);
    while not (Stack.is_empty stack) do
      let x = Stack.pop stack in
      if not (Id_set.mem x !covered) then begin
        covered := Id_set.add x !covered;
        Graph.iter_deps g x (fun v -> Stack.push v stack)
      end
    done
  in
  Id_set.iter mark_descendants s;
  Id_set.diff s !covered

(* Mirror image for dependents (nodes forced below the new rule): drop any
   candidate that can reach another candidate. *)
let maximal_sources g s =
  let covered = ref Id_set.empty in
  let mark_ancestors j =
    let stack = Stack.create () in
    Graph.iter_dependents g j (fun v -> Stack.push v stack);
    while not (Stack.is_empty stack) do
      let x = Stack.pop stack in
      if not (Id_set.mem x !covered) then begin
        covered := Id_set.add x !covered;
        Graph.iter_dependents g x (fun v -> Stack.push v stack)
      end
    done
  in
  Id_set.iter mark_ancestors s;
  Id_set.diff s !covered

(* Positions of [rules], highest precedence first ({!beats} order), sorted
   on flat int keys rather than through the rule records. *)
let by_precedence rules =
  let pri = Array.map (fun (r : Rule.t) -> r.Rule.priority) rules in
  let ids = Array.map (fun (r : Rule.t) -> r.Rule.id) rules in
  let order = Array.init (Array.length rules) Fun.id in
  Array.stable_sort
    (fun i j ->
      let c = Int.compare pri.(j) pri.(i) in
      if c <> 0 then c else Int.compare ids.(i) ids.(j))
    order;
  order

let compile rules =
  let n = Array.length rules in
  let order = by_precedence rules in
  let g = Graph.create ~initial_capacity:(2 * n) () in
  Array.iter (fun i -> Graph.add_node g rules.(i).Rule.id) order;
  (* The pairwise overlap test runs n^2/2 times; work on the raw chunk
     vectors (hoisted per rule, iterated with unsafe accesses) instead of
     going through Ternary.overlaps per pair. *)
  let values = Array.make n [||] and masks = Array.make n [||] in
  Array.iteri
    (fun pos i ->
      let v, m = Fr_tern.Ternary.unsafe_chunks rules.(i).Rule.field in
      values.(pos) <- v;
      masks.(pos) <- m)
    order;
  let nchunks = if n = 0 then 0 else Array.length values.(0) in
  let overlaps_at a b =
    let va = Array.unsafe_get values a and ma = Array.unsafe_get masks a in
    let vb = Array.unsafe_get values b and mb = Array.unsafe_get masks b in
    let rec go k =
      k >= nchunks
      || Int64.logand
           (Int64.logand (Array.unsafe_get ma k) (Array.unsafe_get mb k))
           (Int64.logxor (Array.unsafe_get va k) (Array.unsafe_get vb k))
         = 0L
         && go (k + 1)
    in
    go 0
  in
  for pos = 1 to n - 1 do
    let r = rules.(order.(pos)) in
    let candidates = ref Id_set.empty in
    for above = 0 to pos - 1 do
      if overlaps_at pos above then
        candidates := Id_set.add rules.(order.(above)).Rule.id !candidates
    done;
    Id_set.iter
      (fun j -> Graph.add_edge g r.Rule.id j)
      (minimal_targets g !candidates)
  done;
  g

let compile_fast ?(index = Overlap_index.create ()) rules =
  if Overlap_index.length index > 0 then
    invalid_arg "Build.compile_fast: index must start empty";
  let n = Array.length rules in
  let order = by_precedence rules in
  let g = Graph.create ~initial_capacity:(2 * n) () in
  Array.iter (fun i -> Graph.add_node g rules.(i).Rule.id) order;
  Array.iter
    (fun i ->
      let r = rules.(i) in
      (* Everything indexed so far has higher precedence. *)
      let candidates = ref Id_set.empty in
      Overlap_index.iter_overlapping index r (fun s ->
          candidates := Id_set.add s.Rule.id !candidates);
      Id_set.iter (fun j -> Graph.add_edge g r.Rule.id j) (minimal_targets g !candidates);
      Overlap_index.add index r)
    order;
  g

let dependencies_of g ~existing (r : Rule.t) =
  let ups = ref Id_set.empty and downs = ref Id_set.empty in
  List.iter
    (fun (s : Rule.t) ->
      if s.id <> r.id && Rule.overlaps r s then
        if beats s r then ups := Id_set.add s.id !ups
        else downs := Id_set.add s.id !downs)
    existing;
  (Id_set.elements (minimal_targets g !ups), Id_set.elements (maximal_sources g !downs))

let insert g ~existing r =
  let deps, dependents = dependencies_of g ~existing r in
  Graph.add_node g r.Rule.id;
  List.iter (fun j -> Graph.add_edge g r.Rule.id j) deps;
  List.iter (fun x -> Graph.add_edge g x r.Rule.id) dependents

let remove ?contract g id = Graph.remove_node ?contract g id

let closure_covers_overlaps g rules =
  let n = Array.length rules in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let a = rules.(i) and b = rules.(j) in
        (* a below b required? then a ->* b must hold. *)
        if Rule.overlaps a b && beats b a && not (Topo.reachable g a.Rule.id b.Rule.id)
        then ok := false
      end
    done
  done;
  !ok
