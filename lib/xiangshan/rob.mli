(** Re-order buffer: a window [\[head, tail)] of sequence numbers over
    the core's uop rows ({!Uop.t}, one reusable row per slot).  Commit
    pops from the head; branch mispredicts, traps and serialising
    instructions squash from the tail.  Dispatch initialises a uop's
    row in place, so {!push} only moves the tail. *)

type t = {
  uops : Uop.t;  (** the core's uops, created with the ROB *)
  cap : int;
  mutable head : int;  (** oldest live sequence number *)
  mutable tail : int;  (** next sequence number to allocate *)
  mutable swapped : int;
      (** fault injection ({!swap_head_next}): the head at which the
          two oldest entries were exchanged, -1 = none *)
}

val create : size:int -> t

val count : t -> int

val is_full : t -> bool

val is_empty : t -> bool

val push : t -> int -> unit
(** [push t seq]: [seq] must equal [tail], its row initialised. *)

val head_seq : t -> int
(** The uop that retires next: the oldest, unless {!swap_head_next}
    exchanged the two oldest.  Raises [Invalid_argument] when the ROB
    is empty: check {!is_empty} first. *)

val pop_head : t -> unit

val mem : t -> int -> bool
(** The seq is inside the live window. *)

val squash_younger : t -> after:int -> int
(** Squash every uop with seq > [after], marking its row, and return
    the old tail: the squashed uops are [\[tail, old tail)], to be
    rolled back youngest-first.  Allocates nothing. *)

val swap_head_next : t -> now:int -> bool
(** Fault injection: exchange the two oldest entries (both completed,
    exception-free, ready to retire) so they commit out of program
    order; exchanging them again restores the order.  Returns whether
    the swap applied. *)
