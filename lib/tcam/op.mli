(** TCAM operations — the vocabulary of update sequences (§II.D).

    The paper writes [(I, f, A)] for "write entry [f] at physical address
    [A]" and [(D, A)] for "erase address [A]".  An {e update sequence} is an
    op list produced by a scheduler; {!Tcam.apply_sequence} knows how to
    apply one safely. *)

type t =
  | Insert of { rule_id : int; addr : int }
      (** Write the entry at the address.  When the entry already sits at
          another address this is a {e movement} (the old slot is freed). *)
  | Delete of { addr : int }  (** Erase whatever occupies the address. *)

val insert : rule_id:int -> addr:int -> t
val delete : addr:int -> t

val addr : t -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val pp_sequence : Format.formatter -> t list -> unit
