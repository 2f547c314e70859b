type t = Original | Interleaved of int | Separated

let to_string = function
  | Original -> "original"
  | Interleaved k -> Printf.sprintf "interleaved-%d" k
  | Separated -> "separated"

let pp ppf l = Format.pp_print_string ppf (to_string l)

let capacity_needed layout ~n =
  match layout with
  | Original | Separated -> n
  | Interleaved k ->
      if k < 1 then invalid_arg "Layout.capacity_needed: K must be >= 1";
      n + ((n + k - 1) / k)

let place ?deadmap ?payload layout ~tcam_size ~order =
  let n = Array.length order in
  let tcam = Tcam.create ~size:tcam_size in
  (match deadmap with
  | Some d -> Tcam.adopt_deadmap tcam d
  | None -> ());
  (* Canonical positions index the sequence of writable addresses, so a
     switch re-adopting rules onto partially dead hardware packs around
     the holes it already knows about (identity on healthy hardware). *)
  let writable =
    let dead = Tcam.deadmap tcam in
    let out = Array.make (max 1 (tcam_size - Deadmap.count dead)) 0 in
    let j = ref 0 in
    for a = 0 to tcam_size - 1 do
      if not (Deadmap.is_dead dead a) then begin
        out.(!j) <- a;
        incr j
      end
    done;
    Array.sub out 0 !j
  in
  let w = Array.length writable in
  if capacity_needed layout ~n > w then
    invalid_arg "Layout.place: entries do not fit in the TCAM";
  let position =
    match layout with
    | Original -> Fun.id
    | Interleaved k ->
        if k < 1 then invalid_arg "Layout.place: K must be >= 1";
        fun i -> i + (i / k)
    | Separated ->
        let bottom = n / 2 in
        fun i -> if i < bottom then i else w - (n - i)
  in
  Tcam.load ?payload tcam
    (Array.mapi (fun i id -> (id, writable.(position i))) order);
  tcam

type separated_regions = {
  mutable bottom_next : int;
  mutable top_next : int;
  mutable bottom_count : int;
  mutable top_count : int;
}

let separated_regions_of tcam =
  let sz = Tcam.size tcam in
  let bottom_next = ref 0 in
  while !bottom_next < sz && not (Tcam.is_free tcam !bottom_next) do
    incr bottom_next
  done;
  let top_next = ref (sz - 1) in
  while !top_next >= 0 && not (Tcam.is_free tcam !top_next) do
    decr top_next
  done;
  let bottom_count = ref 0 and top_count = ref 0 in
  Tcam.iter_used tcam (fun ~addr ~rule_id:_ ->
      if addr < !bottom_next then incr bottom_count
      else if addr > !top_next then incr top_count);
  {
    bottom_next = !bottom_next;
    top_next = !top_next;
    bottom_count = !bottom_count;
    top_count = !top_count;
  }

let middle_free r = r.top_next - r.bottom_next + 1
