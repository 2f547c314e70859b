module Tcam = Fr_tcam.Tcam
module Graph = Fr_dag.Graph
module Min_tree = Fr_bitree.Min_tree

type backend = On_demand | Array_backend | Bit_backend

let backend_to_string = function
  | On_demand -> "on-demand"
  | Array_backend -> "array"
  | Bit_backend -> "bit"

let all_backends = [ On_demand; Array_backend; Bit_backend ]

type repr =
  | Demand
  | Arr of int array
  | Bit of Min_tree.t  (* indices mirrored for Dir.Up, see below *)

type t = {
  backend : backend;
  dir : Dir.t;
  graph : Graph.t;
  tcam : Tcam.t;
  repr : repr;
  (* Pre-computed back-ends only (empty for [On_demand]): per slot, the
     occupant's next hop and chain length, packed with two refresh marks
     into one int (see [pack]). *)
  cells : int array;
  (* Refresh scratch, kept across calls: the changed addresses, sorted,
     and a stack of (id, address) pairs still to settle. *)
  mutable changed : int array;
  mutable n_changed : int;
  mutable stack : int array;
  mutable n_stack : int;
}

let dir t = t.dir
let backend t = t.backend

let size t = Tcam.size t.tcam

(* Tie-breaking: the LOWEST address wins ties for Up, the HIGHEST for Down —
   i.e. always the candidate nearest the entries, keeping the free pool
   contiguous.  (Algorithm 1's literal "<=" would prefer the highest
   address, which eats the free pool from the far end and eventually
   strands the top slot; see DESIGN.md §7.)  The BIT natively prefers the
   highest internal index on ties, so Up runs on mirrored indices. *)
let to_internal t a = match t.dir with Dir.Up -> size t - 1 - a | Dir.Down -> a
let of_internal = to_internal

(* Dead rows are unusable as chain landing slots: their metric is a
   sentinel larger than any real chain length, so [min_in] can both
   avoid them and recognise an all-dead window.  Far below [max_int] so
   arithmetic around it cannot overflow. *)
let dead_metric = max_int / 4

(* A cell: bit 0 marks an entry queued for settling, bit 1 one whose
   hop must be found by a full dependency scan, bits 2–31 hold the chain
   length and the bits above hold hop + 1 (0: no hop).  A free slot's
   cell is 0. *)
let queued = 1
let rescan = 2
let chain_mask = (1 lsl 30) - 1
let pack ~hop ~chain = ((hop + 1) lsl 32) lor (chain lsl 2)
let hop_of c = (c lsr 32) - 1
let chain_of c = (c lsr 2) land chain_mask
let unsettled = -1

let compute t addr =
  if Tcam.is_dead t.tcam addr then dead_metric
  else Metric.compute t.dir t.graph t.tcam ~addr

let stored_get t addr =
  match t.repr with
  | Demand -> compute t addr
  | Arr m -> m.(addr)
  | Bit mt -> Min_tree.get mt (to_internal t addr)

let get t addr =
  if Tcam.is_dead t.tcam addr then dead_metric else stored_get t addr

let stored_set t addr v =
  match t.repr with
  | Demand -> ()
  | Arr m -> m.(addr) <- v
  | Bit mt -> Min_tree.set mt (to_internal t addr) v

let scan_hop t id = Option.value (Dir.next_hop t.dir t.graph t.tcam id) ~default:(-1)

let hop t addr =
  match t.repr with
  | Demand -> (
      match Tcam.read t.tcam addr with
      | Tcam.Free -> None
      | Tcam.Used id -> Dir.next_hop t.dir t.graph t.tcam id)
  | Arr _ | Bit _ ->
      let h = hop_of t.cells.(addr) in
      if h < 0 then None else Some h

let chain_at t h = if h < 0 then 0 else chain_of t.cells.(h)

(* [a] is nearer the entry than [b] (-1: no hop at all). *)
let nearer t a b =
  b < 0 || match t.dir with Dir.Up -> a < b | Dir.Down -> a > b

(* The entry [e] still reads the occupant of [h] as a constraint. *)
let constrained_by t e h =
  match Tcam.read t.tcam h with
  | Tcam.Free -> false
  | Tcam.Used y -> (
      match t.dir with
      | Dir.Up -> Graph.mem_edge t.graph e y
      | Dir.Down -> Graph.mem_edge t.graph y e)

(* Store a slot's settled cell, and its metric where the min structure
   does not hold it already. *)
let settle t a ~hop ~chain =
  t.cells.(a) <- pack ~hop ~chain;
  let v = if Tcam.is_dead t.tcam a then dead_metric else chain in
  if v <> stored_get t a then stored_set t a v

(* Chain order: every hop of a valid table lies above its entry for Up
   and below it for Down, so a slot's hop is settled before the slot.
   The recursion only runs on a table whose order is broken. *)
let rebuild t =
  match t.repr with
  | Demand -> ()
  | Arr _ | Bit _ ->
      let n = size t in
      Array.fill t.cells 0 n unsettled;
      let rec settle_at a =
        if t.cells.(a) = unsettled then
          match Tcam.read t.tcam a with
          | Tcam.Free -> settle t a ~hop:(-1) ~chain:0
          | Tcam.Used id ->
              let h = scan_hop t id in
              if h >= 0 then settle_at h;
              settle t a ~hop:h ~chain:(1 + chain_at t h)
      in
      (match t.dir with
      | Dir.Up -> for a = n - 1 downto 0 do settle_at a done
      | Dir.Down -> for a = 0 to n - 1 do settle_at a done)

let create ~backend ~dir graph tcam =
  let n = Tcam.size tcam in
  if n > chain_mask then invalid_arg "Store.create: TCAM too large";
  let repr, cells =
    match backend with
    | On_demand -> (Demand, [||])
    | Array_backend -> (Arr (Array.make n 0), Array.make n 0)
    | Bit_backend -> (Bit (Min_tree.create n ~init:0), Array.make n 0)
  in
  let t =
    { backend; dir; graph; tcam; repr; cells; changed = Array.make 8 0;
      n_changed = 0; stack = Array.make 64 0; n_stack = 0 }
  in
  rebuild t;
  t

(* Linear scan with direction-dependent tie-breaking: Up prefers the lowest
   address, Down the highest (see above). *)
let scan_min value_at t ~lo ~hi =
  let lo = max 0 lo and hi = min (size t - 1) hi in
  if lo > hi then None
  else begin
    let best_a = ref lo and best_v = ref (value_at t lo) in
    for a = lo + 1 to hi do
      let v = value_at t a in
      let replace =
        match t.dir with Dir.Up -> v < !best_v | Dir.Down -> v <= !best_v
      in
      if replace then begin
        best_a := a;
        best_v := v
      end
    done;
    Some (!best_a, !best_v)
  end

let raw_min_in t ~lo ~hi =
  match t.repr with
  | Demand -> scan_min compute t ~lo ~hi
  | Arr m -> scan_min (fun _ a -> m.(a)) t ~lo ~hi
  | Bit mt ->
      let lo = max 0 lo and hi = min (size t - 1) hi in
      if lo > hi then None
      else begin
        let ilo = min (to_internal t lo) (to_internal t hi)
        and ihi = max (to_internal t lo) (to_internal t hi) in
        match Min_tree.min_in mt ~lo:ilo ~hi:ihi with
        | None -> None
        | Some (ia, v) -> Some (of_internal t ia, v)
      end

(* Stored backends can hold a stale (pre-discovery) value for a row that
   has since been declared dead: a failed op never refreshes its target.
   Each query lazily repairs the stale cells it trips over — every
   round-trip permanently raises one dead address to the sentinel, so
   the loop terminates.  (On-demand computes fresh values, so a dead
   winner already carries the sentinel and falls out on the first
   test.) *)
let rec min_in t ~lo ~hi =
  match raw_min_in t ~lo ~hi with
  | None -> None
  | Some (_, v) when v >= dead_metric -> None
  | Some (a, _) when Tcam.is_dead t.tcam a ->
      stored_set t a dead_metric;
      min_in t ~lo ~hi
  | Some _ as best -> best

(* The changed set: sorted, without repeats, in a buffer kept across
   calls (an update changes a handful of addresses). *)
let add_changed t a =
  let rec pos i = if i > 0 && t.changed.(i - 1) > a then pos (i - 1) else i in
  let i = pos t.n_changed in
  if i = 0 || t.changed.(i - 1) <> a then begin
    if t.n_changed = Array.length t.changed then begin
      let bigger = Array.make (2 * t.n_changed) 0 in
      Array.blit t.changed 0 bigger 0 t.n_changed;
      t.changed <- bigger
    end;
    Array.blit t.changed i t.changed (i + 1) (t.n_changed - i);
    t.changed.(i) <- a;
    t.n_changed <- t.n_changed + 1
  end

let is_changed t a =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let c = t.changed.(mid) in
      if c = a then true else if c < a then go (mid + 1) hi else go lo mid
  in
  a >= 0 && go 0 t.n_changed

let push t id a =
  if t.n_stack + 2 > Array.length t.stack then begin
    let bigger = Array.make (2 * Array.length t.stack) 0 in
    Array.blit t.stack 0 bigger 0 t.n_stack;
    t.stack <- bigger
  end;
  t.stack.(t.n_stack) <- id;
  t.stack.(t.n_stack + 1) <- a;
  t.n_stack <- t.n_stack + 2

let enqueue t id a marks =
  t.cells.(a) <- t.cells.(a) lor marks;
  push t id a

(* Entry [e] may have a new hop: a constraint of it landed at [c] (-1:
   it lost one instead).  Its cached hop stays right unless that hop's
   slot changed and no longer holds one of its constraints — only then
   does it rescan.  Otherwise the nearer of the cached hop and [c]
   wins. *)
let offer t e c =
  match Tcam.addr_of t.tcam e with
  | None -> ()
  | Some a ->
      let cell = t.cells.(a) in
      let h = hop_of cell in
      if cell land queued <> 0 then begin
        if cell land rescan = 0 && c >= 0 && nearer t c h then
          t.cells.(a) <- pack ~hop:c ~chain:(chain_of cell) lor queued
      end
      else if is_changed t h && not (constrained_by t e h) then
        enqueue t e a (queued lor rescan)
      else if c >= 0 && nearer t c h then begin
        t.cells.(a) <- pack ~hop:c ~chain:(chain_of cell);
        enqueue t e a queued
      end

(* The chain at [a] moved: every entry that hops to [a] and is not
   already queued settles again. *)
let spread t id a =
  Dir.propagation_targets t.dir t.graph id (fun e ->
      match Tcam.addr_of t.tcam e with
      | None -> ()
      | Some ae ->
          let cell = t.cells.(ae) in
          if cell land queued = 0 && hop_of cell = a then enqueue t e ae queued)

let refresh t ~addrs ~ids =
  match t.repr with
  | Demand -> ()
  | Arr _ | Bit _ ->
      t.n_changed <- 0;
      t.n_stack <- 0;
      List.iter (add_changed t) addrs;
      (* A changed slot is settled afresh: a free one at once, an
         occupant by a full scan once everything else is queued. *)
      for i = 0 to t.n_changed - 1 do
        let c = t.changed.(i) in
        match Tcam.read t.tcam c with
        | Tcam.Free -> settle t c ~hop:(-1) ~chain:0
        | Tcam.Used _ -> t.cells.(c) <- t.cells.(c) lor queued lor rescan
      done;
      for i = 0 to t.n_changed - 1 do
        let c = t.changed.(i) in
        match Tcam.read t.tcam c with
        | Tcam.Free -> ()
        | Tcam.Used id -> Dir.propagation_targets t.dir t.graph id (fun e -> offer t e c)
      done;
      List.iter (fun e -> offer t e (-1)) ids;
      (* Pushed last, the changed occupants pop first, in chain order, so
         the entries that hop to them mostly read settled chains. *)
      for i = 0 to t.n_changed - 1 do
        let c =
          match t.dir with
          | Dir.Up -> t.changed.(i)
          | Dir.Down -> t.changed.(t.n_changed - 1 - i)
        in
        match Tcam.read t.tcam c with
        | Tcam.Free -> ()
        | Tcam.Used id -> push t id c
      done;
      while t.n_stack > 0 do
        t.n_stack <- t.n_stack - 2;
        let id = t.stack.(t.n_stack) and a = t.stack.(t.n_stack + 1) in
        let cell = t.cells.(a) in
        let hop = if cell land rescan <> 0 then scan_hop t id else hop_of cell in
        let chain = 1 + chain_at t hop in
        settle t a ~hop ~chain;
        if chain <> chain_of cell then spread t id a
      done

let snapshot t = Array.init (size t) (fun a -> stored_get t a)
