module Rule = Fr_tern.Rule
module Agent = Fr_switch.Agent

(* Per-id pending state.  [seq] is the arrival index of the op that
   created the entry (for adds: of the latest Add), so the drain plan can
   keep arrival order within each phase. *)
type pending =
  | P_add of { rule : Rule.t; seq : int }  (** insert a fresh rule *)
  | P_set of { action : Rule.action; seq : int }
      (** rewrite an installed rule's action in place *)
  | P_remove of { seq : int }  (** erase an installed rule *)
  | P_replace of { rule : Rule.t; seq : int }
      (** erase an installed rule, then insert its successor *)

type outcome = Queued | Folded | Annihilated | Rejected of string

type t = {
  tbl : (int, pending) Hashtbl.t;
  (* Placement epoch of each pending id (failover fencing): once an id
     has pending ops under epoch [e], ops tagged with a different epoch
     are fenced off — they belong to a different shard placement and
     accepting them here would let one id's ops interleave across two
     shards.  The service bumps an id's epoch only when it has no pending
     ops anywhere, so a fence firing means the ordering invariant was
     about to break. *)
  epochs : (int, int) Hashtbl.t;
  mutable next_seq : int;
  mutable coalesced : int;
  mutable rejected : (Agent.flow_mod * string) list;  (* newest first *)
}

let create () =
  {
    tbl = Hashtbl.create 64;
    epochs = Hashtbl.create 64;
    next_seq = 0;
    coalesced = 0;
    rejected = [];
  }

let depth t = Hashtbl.length t.tbl
let mem t id = Hashtbl.mem t.tbl id
let is_empty t = Hashtbl.length t.tbl = 0 && t.rejected = []
let coalesced t = t.coalesced
let rejected t = List.rev t.rejected

let clear t =
  Hashtbl.reset t.tbl;
  Hashtbl.reset t.epochs;
  t.coalesced <- 0;
  t.rejected <- []

let reject t fm msg =
  t.rejected <- (fm, msg) :: t.rejected;
  Rejected msg

let fold t ~n = t.coalesced <- t.coalesced + n

let fence t ~epoch fm =
  match epoch with
  | None -> None
  | Some e -> (
      let id = Agent.mod_id fm in
      match Hashtbl.find_opt t.epochs id with
      | Some e' when e' <> e && Hashtbl.mem t.tbl id ->
          Some
            (Printf.sprintf
               "epoch fence: rule %d moved shards mid-queue (pending epoch \
                %d, op epoch %d)"
               id e' e)
      | _ ->
          Hashtbl.replace t.epochs id e;
          None)

let push ?epoch t ~installed fm =
  match fence t ~epoch fm with
  | Some msg -> reject t fm msg
  | None ->
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  match fm with
  | Agent.Add rule -> (
      let id = rule.Rule.id in
      match Hashtbl.find_opt t.tbl id with
      | None ->
          if installed then
            reject t fm (Printf.sprintf "rule %d already installed" id)
          else begin
            Hashtbl.replace t.tbl id (P_add { rule; seq });
            Queued
          end
      | Some (P_add _ | P_replace _ | P_set _) ->
          (* The id will exist when this op's turn comes: a raw replay
             would fail it as a duplicate. *)
          reject t fm (Printf.sprintf "rule %d already installed" id)
      | Some (P_remove _) ->
          Hashtbl.replace t.tbl id (P_replace { rule; seq });
          Folded)
  | Agent.Set_action { id; action } -> (
      match Hashtbl.find_opt t.tbl id with
      | None ->
          if installed then begin
            Hashtbl.replace t.tbl id (P_set { action; seq });
            Queued
          end
          else reject t fm (Printf.sprintf "rule %d is not installed" id)
      | Some (P_add { rule; seq }) ->
          Hashtbl.replace t.tbl id
            (P_add { rule = Rule.with_action rule action; seq });
          fold t ~n:1;
          Folded
      | Some (P_replace { rule; seq }) ->
          Hashtbl.replace t.tbl id
            (P_replace { rule = Rule.with_action rule action; seq });
          fold t ~n:1;
          Folded
      | Some (P_set _) ->
          Hashtbl.replace t.tbl id (P_set { action; seq });
          fold t ~n:1;
          Folded
      | Some (P_remove _) ->
          reject t fm (Printf.sprintf "rule %d is not installed" id))
  | Agent.Remove { id } -> (
      match Hashtbl.find_opt t.tbl id with
      | None ->
          if installed then begin
            Hashtbl.replace t.tbl id (P_remove { seq });
            Queued
          end
          else reject t fm (Printf.sprintf "rule %d is not installed" id)
      | Some (P_add _) ->
          (* The insertion never happened as far as the hardware is
             concerned: both ops vanish. *)
          Hashtbl.remove t.tbl id;
          Hashtbl.remove t.epochs id;
          fold t ~n:2;
          Annihilated
      | Some (P_set { seq; _ }) ->
          (* The rewrite is moot on a rule about to be erased. *)
          Hashtbl.replace t.tbl id (P_remove { seq });
          fold t ~n:1;
          Folded
      | Some (P_replace { seq; _ }) ->
          (* The re-insert is cancelled; the original erase stands. *)
          Hashtbl.replace t.tbl id (P_remove { seq });
          fold t ~n:1;
          Folded
      | Some (P_remove _) ->
          reject t fm (Printf.sprintf "rule %d is not installed" id))

(* Erases free slots for the insertions that follow; rewrites touch rules
   no erase of this drain can reach (the states are exclusive per id). *)
let pending_ops t =
  let removes = ref [] and sets = ref [] and adds = ref [] in
  Hashtbl.iter
    (fun id -> function
      | P_add { rule; seq } -> adds := (seq, Agent.Add rule) :: !adds
      | P_set { action; seq } ->
          sets := (seq, Agent.Set_action { id; action }) :: !sets
      | P_remove { seq } -> removes := (seq, Agent.Remove { id }) :: !removes
      | P_replace { rule; seq } ->
          removes := (seq, Agent.Remove { id }) :: !removes;
          adds := (seq, Agent.Add rule) :: !adds)
    t.tbl;
  let in_order l = List.map snd (List.sort compare l) in
  in_order !removes @ in_order !sets @ in_order !adds
