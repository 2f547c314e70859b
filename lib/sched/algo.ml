module Tcam = Fr_tcam.Tcam

type t = {
  name : string;
  schedule_insert :
    rule_id:int -> deps:int list -> dependents:int list -> (Fr_tcam.Op.t list, string) result;
  schedule_delete : rule_id:int -> (Fr_tcam.Op.t list, string) result;
  after_apply : Fr_tcam.Op.t list -> unit;
  rows_revived : int list -> unit;
}

let insert_window tcam ~deps ~dependents =
  let resolve id =
    match Tcam.addr_of tcam id with
    | Some a -> Ok a
    | None -> Error (Printf.sprintf "constraint entry %d is not in the TCAM" id)
  in
  let rec fold_bound f init = function
    | [] -> Ok init
    | id :: rest -> (
        match resolve id with
        | Error _ as e -> e
        | Ok a -> fold_bound f (f init a) rest)
  in
  match fold_bound max (-1) dependents with
  | Error _ as e -> e
  | Ok lo -> (
      match fold_bound min (Tcam.size tcam) deps with
      | Error _ as e -> e
      | Ok hi ->
          if lo >= hi then
            Error
              (Printf.sprintf
                 "empty candidate window: dependents reach 0x%x, dependencies \
                  start at 0x%x"
                 lo hi)
          else Ok (lo, hi))

let touched ~scheduled applied =
  let addrs = List.map Fr_tcam.Op.addr applied in
  if applied == scheduled || List.equal Fr_tcam.Op.equal applied scheduled then addrs
  else List.rev_append (List.map Fr_tcam.Op.addr scheduled) addrs

let fresh_request_check tcam ~rule_id =
  if Tcam.mem tcam rule_id then
    Error (Printf.sprintf "entry %d is already stored" rule_id)
  else Ok ()
