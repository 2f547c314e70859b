type mode = Reverse | Drop_first

let all_modes = [ Reverse; Drop_first ]

let mode_to_string = function
  | Reverse -> "reverse"
  | Drop_first -> "drop-first"

let mode_of_string = function
  | "reverse" -> Some Reverse
  | "drop-first" | "drop_first" -> Some Drop_first
  | _ -> None

let mangle mode ops =
  match ops with
  | [] | [ _ ] -> ops
  | _ :: rest -> ( match mode with Reverse -> List.rev ops | Drop_first -> rest)

let wrap mode (a : Algo.t) =
  let corrupt = Result.map (mangle mode) in
  {
    Algo.name = a.Algo.name ^ "!" ^ mode_to_string mode;
    schedule_insert =
      (fun ~rule_id ~deps ~dependents ->
        corrupt (a.Algo.schedule_insert ~rule_id ~deps ~dependents));
    schedule_delete =
      (fun ~rule_id -> corrupt (a.Algo.schedule_delete ~rule_id));
    after_apply = a.Algo.after_apply;
  }
