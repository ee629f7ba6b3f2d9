(** Exception and interrupt causes, trap entry and return.

    Shared by the reference model and the DUT so the architectural
    trap semantics cannot diverge; what *can* diverge -- and what the
    diff-rules reconcile -- is *when* a trap is taken. *)

type exc =
  | Fetch_misaligned
  | Fetch_access
  | Illegal_instruction
  | Breakpoint
  | Load_misaligned
  | Load_access
  | Store_misaligned
  | Store_access
  | Ecall_from_u
  | Ecall_from_s
  | Ecall_from_m
  | Fetch_page_fault
  | Load_page_fault
  | Store_page_fault

val pp_exc : Format.formatter -> exc -> unit
val show_exc : exc -> string
val equal_exc : exc -> exc -> bool
val compare_exc : exc -> exc -> int

val exc_code : exc -> int
(** The mcause code. *)

val exc_of_code : int -> exc
(** The inverse of {!exc_code}.
    @raise Invalid_argument on an unknown code. *)

val ecall_cause : Csr.priv -> exc
(** The cause of an environment call made at a privilege level. *)

type irq = Ssip | Msip | Stip | Mtip | Seip | Meip

val pp_irq : Format.formatter -> irq -> unit
val show_irq : irq -> string
val equal_irq : irq -> irq -> bool
val compare_irq : irq -> irq -> int

val irq_code : irq -> int

val irq_of_code : int -> irq
(** @raise Invalid_argument on an unknown code. *)

exception Exception of exc * int64
(** Raised by interpreters mid-instruction; the step function catches
    it and performs trap entry. The payload is (cause, tval). *)

val interrupt_bit : int64
(** Bit 63 of mcause. *)

val pending_interrupt : Csr.t -> irq option
(** The interrupt to take, if any, honouring mie/mip, mstatus.MIE/SIE,
    delegation, and the architectural priority order. *)

val enter_trap :
  Csr.t -> cause:int64 -> interrupt:bool -> tval:int64 -> epc:int64 -> int64
(** Perform trap entry (possibly delegated to S-mode); returns the
    handler pc. *)

val take_exception : Csr.t -> exc -> int64 -> epc:int64 -> int64

val take_interrupt : Csr.t -> irq -> epc:int64 -> int64

val mret : Csr.t -> int64
(** Return-from-M-trap; returns the resume pc. *)

val sret : Csr.t -> int64
