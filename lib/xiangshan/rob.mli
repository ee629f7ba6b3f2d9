(** Re-order buffer: a ring buffer indexed by the global uop sequence
    number.  Commit pops from the head; branch mispredicts, traps and
    serialising instructions squash from the tail.  Free slots hold
    [Uop.sentinel]; which slots are live comes from [head] and [tail]
    alone. *)

type t = {
  buf : Uop.t array;
  cap : int;
  mutable head : int; (** oldest live sequence number *)
  mutable tail : int; (** next sequence number to allocate *)
}

val create : size:int -> t

val count : t -> int

val is_full : t -> bool

val is_empty : t -> bool

val push : t -> Uop.t -> unit
(** The uop's [seq] must equal [tail]. *)

val peek_head : t -> Uop.t
(** The oldest live uop.  Raises [Invalid_argument] when the ROB is
    empty: check {!is_empty} first. *)

val pop_head : t -> unit

val get : t -> int -> Uop.t option
(** Lookup by sequence number ([None] outside the live window). *)

val squash_younger : t -> after:int -> Uop.t list
(** Squash every uop with seq > [after]; returns them youngest-first,
    the order rename rollback requires. *)

val swap_head_next : t -> now:int -> bool
(** Fault injection: exchange the two oldest entries (both completed,
    exception-free, ready to retire) so they commit out of program
    order.  Returns whether the swap applied. *)
