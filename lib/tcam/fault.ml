module Rng = Fr_prng.Rng

type t = {
  rng : Rng.t;
  fail_prob : float;
  stuck : (int, unit) Hashtbl.t;
  slow_ms : float;  (* extra modelled latency per hardware op *)
  mutable remaining : int;  (* spontaneous failures left; -1 = unlimited *)
  mutable injected : int;
}

let create ?(fail_prob = 0.0) ?(stuck = []) ?max_failures ?(slow_ms = 0.0)
    ~seed () =
  if fail_prob < 0.0 || fail_prob > 1.0 then
    invalid_arg "Fault.create: fail_prob must be in [0, 1]";
  if not (Float.is_finite slow_ms && slow_ms >= 0.0) then
    invalid_arg "Fault.create: slow_ms must be finite and >= 0";
  let tbl = Hashtbl.create (max 1 (List.length stuck)) in
  List.iter (fun a -> Hashtbl.replace tbl a ()) stuck;
  {
    rng = Rng.create ~seed;
    fail_prob;
    stuck = tbl;
    slow_ms;
    remaining = Option.value max_failures ~default:(-1);
    injected = 0;
  }

let slow_ms t = t.slow_ms

let spontaneous t =
  if t.fail_prob > 0.0 && t.remaining <> 0 && Rng.chance t.rng t.fail_prob
  then begin
    t.injected <- t.injected + 1;
    if t.remaining > 0 then t.remaining <- t.remaining - 1;
    true
  end
  else false

let should_fail t ~addr =
  if Hashtbl.mem t.stuck addr then begin
    t.injected <- t.injected + 1;
    true
  end
  else spontaneous t

(* Stuck-at-write rows still invalidate (the valid bit clears even when
   the content cells are broken), so erases only suffer the spontaneous
   fault tier.  [addr] is kept for interface symmetry. *)
let should_fail_erase t ~addr:_ = spontaneous t

let is_stuck t ~addr = Hashtbl.mem t.stuck addr

type spec = {
  fail_prob : float;
  stuck : int list;
  max_failures : int option;
  slow_ms : float;
}

let of_spec { fail_prob; stuck; max_failures; slow_ms } ~seed =
  create ~fail_prob ~stuck ?max_failures ~slow_ms ~seed ()

let spec_to_string { fail_prob; stuck; max_failures; slow_ms } =
  String.concat ","
    (Printf.sprintf "p=%g" fail_prob
     :: (match stuck with
        | [] -> []
        | l -> [ "stuck=" ^ String.concat "+" (List.map string_of_int l) ])
    @ (match max_failures with Some m -> [ Printf.sprintf "max=%d" m ] | None -> [])
    @ if slow_ms > 0.0 then [ Printf.sprintf "slow=%g" slow_ms ] else [])

(* "p=0.5,stuck=3+9,max=4,slow=2.5" — every key optional, order free. *)
let spec_of_string s =
  let parts = String.split_on_char ',' s |> List.filter (fun p -> p <> "") in
  let seen = Hashtbl.create 4 in
  let rec go acc = function
    | [] -> Ok acc
    | part :: rest -> (
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "fault spec: expected key=value, got %S" part)
        | Some i -> (
            let key = String.sub part 0 i in
            let value = String.sub part (i + 1) (String.length part - i - 1) in
            if Hashtbl.mem seen key then
              Error (Printf.sprintf "fault spec: duplicate key %S" key)
            else begin
              Hashtbl.replace seen key ();
              match key with
            | "p" -> (
                match float_of_string_opt value with
                | Some p when p >= 0.0 && p <= 1.0 ->
                    go { acc with fail_prob = p } rest
                | _ -> Error (Printf.sprintf "fault spec: bad probability %S" value))
            | "stuck" -> (
                let addrs =
                  String.split_on_char '+' value
                  |> List.filter (fun a -> a <> "")
                  |> List.map int_of_string_opt
                in
                if List.exists Option.is_none addrs then
                  Error (Printf.sprintf "fault spec: bad stuck list %S" value)
                else
                  go { acc with stuck = List.filter_map Fun.id addrs } rest)
            | "max" -> (
                match int_of_string_opt value with
                | Some m when m >= 0 -> go { acc with max_failures = Some m } rest
                | _ -> Error (Printf.sprintf "fault spec: bad max %S" value))
            | "slow" -> (
                match float_of_string_opt value with
                | Some ms when Float.is_finite ms && ms >= 0.0 ->
                    go { acc with slow_ms = ms } rest
                | _ -> Error (Printf.sprintf "fault spec: bad slow %S" value))
            | k -> Error (Printf.sprintf "fault spec: unknown key %S" k)
            end))
  in
  go { fail_prob = 0.0; stuck = []; max_failures = None; slow_ms = 0.0 } parts

let injected t = t.injected

let pp ppf (t : t) =
  Format.fprintf ppf "fault(p=%g, stuck=%d, injected=%d)" t.fail_prob
    (Hashtbl.length t.stuck) t.injected
