type t = {
  size : int;
  threshold : int;
  dead : Bytes.t;  (* 1 = dead *)
  strikes : (int, int) Hashtbl.t;  (* consecutive write failures per addr *)
  mutable count : int;
}

let create ?(threshold = 1) ~size () =
  if size <= 0 then invalid_arg "Deadmap.create: size must be positive";
  if threshold < 1 then invalid_arg "Deadmap.create: threshold must be >= 1";
  {
    size;
    threshold;
    dead = Bytes.make size '\000';
    strikes = Hashtbl.create 8;
    count = 0;
  }

let size t = t.size
let threshold t = t.threshold
let count t = t.count
let is_empty t = t.count = 0 && Hashtbl.length t.strikes = 0

let check_addr t addr =
  if addr < 0 || addr >= t.size then invalid_arg "Deadmap: address out of range"

let is_dead t addr =
  check_addr t addr;
  Bytes.unsafe_get t.dead addr <> '\000'

let mark t ~addr =
  check_addr t addr;
  Hashtbl.remove t.strikes addr;
  if Bytes.get t.dead addr = '\000' then begin
    Bytes.set t.dead addr '\001';
    t.count <- t.count + 1;
    true
  end
  else false

let note_failure t ~addr =
  check_addr t addr;
  if Bytes.get t.dead addr <> '\000' then false
  else
    let strikes = 1 + Option.value (Hashtbl.find_opt t.strikes addr) ~default:0 in
    if strikes >= t.threshold then mark t ~addr
    else begin
      Hashtbl.replace t.strikes addr strikes;
      false
    end

let note_success t ~addr =
  check_addr t addr;
  Hashtbl.remove t.strikes addr;
  if Bytes.get t.dead addr <> '\000' then begin
    Bytes.set t.dead addr '\000';
    t.count <- t.count - 1;
    true
  end
  else false

let clear t =
  Bytes.fill t.dead 0 t.size '\000';
  Hashtbl.reset t.strikes;
  t.count <- 0

let dead_list t =
  let acc = ref [] in
  for a = t.size - 1 downto 0 do
    if Bytes.get t.dead a <> '\000' then acc := a :: !acc
  done;
  !acc

let intervals t =
  let acc = ref [] in
  let run_start = ref (-1) in
  for a = 0 to t.size - 1 do
    if Bytes.get t.dead a <> '\000' then begin
      if !run_start < 0 then run_start := a
    end
    else if !run_start >= 0 then begin
      acc := (!run_start, a - 1) :: !acc;
      run_start := -1
    end
  done;
  if !run_start >= 0 then acc := (!run_start, t.size - 1) :: !acc;
  List.rev !acc

let copy t =
  {
    size = t.size;
    threshold = t.threshold;
    dead = Bytes.copy t.dead;
    strikes = Hashtbl.copy t.strikes;
    count = t.count;
  }

let pp ppf t =
  let pp_iv ppf (lo, hi) =
    if lo = hi then Format.fprintf ppf "0x%x" lo
    else Format.fprintf ppf "0x%x-0x%x" lo hi
  in
  Format.fprintf ppf "dead(%d/%d: %a)" t.count t.size
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_iv)
    (intervals t)
