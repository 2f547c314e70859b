(** Write-ahead intent journal — the durability half of [Fr_resil].

    One journal file per shard, plain text, one record per line (the same
    discipline as [Fr_conform.Trace] and [Fr_workload.Rules_io]): a [m]od
    line serialises a flow-mod with a monotonically increasing sequence
    number, [b]egin/[c]ommit markers bracket each drain, and a
    [k] (checkpoint) marker points at a {!Fr_workload.Rules_io} table file
    holding the full installed policy at that sequence number.

    The write path is {e fsync-batched}: mod appends are buffered and the
    channel is flushed only at begin/commit/checkpoint boundaries, so the
    journal is guaranteed to be ahead of the hardware (a drain never
    touches the TCAM before its begin marker — and every mod it covers —
    is durable) without paying a flush per submit.

    Checkpoints compact: the checkpoint table file is written atomically
    (tmp + rename), then the journal itself is atomically rewritten to
    hold just the header and the [k] marker, and stale checkpoint files
    are garbage-collected.  A crash between the two renames leaves the
    previous journal intact (the new table file is merely orphaned).

    The reader is torn-tail tolerant: a crash can leave a partial final
    line, which is dropped; malformed lines {e before} the tail are real
    corruption and reported as errors. *)

module Rule = Fr_tern.Rule
module Agent = Fr_switch.Agent

(** {1 Line codec} *)

val action_to_string : Rule.action -> string
(** Compact action tokens — ["f<port>"], ["d"], ["c"] — shared with the
    conformance trace format ({!Fr_conform.Trace} delegates here). *)

val action_of_string : string -> Rule.action option

type entry =
  | Mod of { seq : int; fm : Agent.flow_mod }
  | Begin of { drain : int; upto : int }
      (** drain [drain] is about to apply every journaled mod with
          [seq <= upto] that is not already covered. *)
  | Commit of { drain : int; upto : int; applied : int; failed : int }
  | Checkpoint of { upto : int; file : string }
      (** [file] (relative to the journal directory) holds the full
          installed table covering every mod with [seq <= upto]. *)

val entry_to_string : entry -> string
val entry_of_string : string -> (entry, string) result

(** {1 Journal directory layout} *)

val dir_file : dir:string -> shard:int -> string
(** Path of shard [shard]'s journal file. *)

val meta_file : dir:string -> string

type meta = {
  shards : int;
  capacity : int;
  policy : string;  (** {!Fr_ctrl.Partition.policy_to_string} form *)
  kind : string;  (** {!Fr_switch.Firmware.algo_kind_name} form *)
  verify : bool;
}
(** Service shape, persisted once at journal creation so that recovery
    needs nothing but the directory. *)

val write_meta : dir:string -> meta -> unit
val read_meta : dir:string -> (meta, string) result
(** [Error] on a bad magic line, a missing key, or a [shards] or
    [capacity] below 1.  Unknown keys are ignored — among them the
    [refresh_every] line older metas carry. *)

val check_shards : dir:string -> meta -> (unit, string) result
(** [Error] unless [dir] holds exactly the WALs [shard-0.wal] ..
    [shard-(shards-1).wal] the meta's shard count implies.  Costs one
    directory listing whatever [shards] claims, so a corrupt count is
    refused before anything is built per shard.  {!read_meta} parses the
    file alone; readers of a whole journal ([Fr_ctrl.Service.recover],
    [journal stat]) call both. *)

val ensure_dir : string -> unit
(** Create [dir] (and missing parents) if needed. *)

val fresh_dir : prefix:string -> string
(** A new empty directory under the system temp dir — for the crash
    oracle and the test suite. *)

(** {1 Writing} *)

type t

val create : dir:string -> shard:int -> t
(** Start a fresh journal (truncating any previous file for this shard). *)

val reopen : dir:string -> shard:int -> next_seq:int -> next_drain:int -> t
(** Reattach to an existing journal in append mode after recovery; the
    counters come from {!read_recovery}. *)

val path : t -> string

val dir : t -> string
(** The journal directory this writer lives in. *)

val last_seq : t -> int

val log_mod : t -> Agent.flow_mod -> int
(** Append a mod record (buffered) and return its sequence number. *)

val log_begin : t -> int
(** Append a begin marker covering every mod so far and flush.  Returns
    the drain id. *)

val log_commit : t -> drain:int -> applied:int -> failed:int -> unit
(** Append the matching commit marker and flush. *)

val checkpoint : ?retain:int -> t -> rules:Rule.t array -> unit
(** Write a checkpoint table covering every mod so far and compact the
    journal down to it (see module doc).  Subsumes the pending drain's
    commit marker: a checkpoint {e is} a commit.  [retain] (default 1,
    clamped to at least 1) keeps the newest [retain] checkpoint tables on
    disk and garbage-collects the rest; recovery only ever reads the
    newest, the extras are an operator safety margin. *)

val sync : t -> unit
val close : t -> unit

(** {1 Recovery reading} *)

type committed = { drain : int; upto : int; applied : int; failed : int }

type recovery = {
  shard : int;
  checkpoint : (int * string) option;
      (** covered sequence number and {e absolute} table-file path *)
  committed : committed list;  (** drains after the checkpoint, in order *)
  mods : (int * Agent.flow_mod) list;
      (** every mod after the checkpoint, ascending seq *)
  interrupted : bool;  (** trailing begin without commit (mid-drain crash) *)
  next_seq : int;
  next_drain : int;
}

val read_recovery : dir:string -> shard:int -> (recovery, string) result

(** {1 Observability} *)

type stat = {
  shard : int;
  wal_bytes : int;
  wal_age_s : float;  (** seconds since the WAL was last written *)
  checkpoints : (int * string * int) list;
      (** (covered seq, file name, bytes), newest first *)
  total_drains : int;  (** drains ever recorded (checkpoints included) *)
  committed_drains : int;  (** committed drains since the last checkpoint *)
  pending_mods : int;  (** journaled mods not yet covered by a commit *)
  interrupted : bool;
}

val stat : dir:string -> shard:int -> (stat, string) result
(** Read-only health summary of one shard's journal — sizes and ages from
    the filesystem, counts from {!read_recovery}. *)
