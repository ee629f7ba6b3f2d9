(** Architectural state of one hart: the state space S_P of the
    paper's formal verification model (§III-A).  Both the REF and the
    DUT's commit stage maintain one; DiffTest compares them under the
    active diff-rules. *)

type t = {
  regs : int64 array; (** x0..x31; x0 pinned to zero *)
  fregs : int64 array; (** raw IEEE-754 bits *)
  mutable pc : int64;
  csr : Csr.t;
  mutable reservation : int64 option; (** LR/SC reservation address *)
  hartid : int;
}

val create : ?pc:int64 -> hartid:int -> unit -> t

val get_reg : t -> int -> int64

val set_reg : t -> int -> int64 -> unit
(** Writes to x0 are discarded. *)

val get_freg : t -> int -> int64

val set_freg : t -> int -> int64 -> unit

val copy : t -> t

val restore_from : t -> src:t -> unit
(** Overwrite [t] with [src]'s architectural contents in place. *)

val diff : t -> t -> string option
(** First difference between two states (pc, integer and FP registers,
    then the comparable CSR digest), rendered for DiffTest reports;
    [None] if architecturally equal. *)

val equal : t -> t -> bool
(** [diff a b = None], decided without allocating. *)

val report :
  t ->
  pc:int64 ->
  reg:(int -> int64) ->
  freg:(int -> int64) ->
  csr:Csr.t ->
  string option
(** The {!diff} message for a DUT state against a REF state given
    field by field (registers by index), for REFs that do not keep an
    [Arch_state.t].  Meant for the mismatch path only: it allocates. *)
