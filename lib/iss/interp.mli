(** The reference model (REF): a straightforward fetch/decode/execute
    RV64 interpreter in the style of Spike, plus the DRAV control
    surface DiffTest uses to reconcile micro-architecture-dependent
    behaviour (paper §III-B2):

    - {!force_exception}: make the next step trap without executing
      (the speculative-TLB page-fault rule);
    - {!force_interrupt}: make the next step take a given interrupt
      (the asynchronous-interrupt rule -- a non-autonomous REF never
      takes interrupts on its own);
    - {!force_sc_failure}: make the next SC fail (LR/SC timeout rule);
    - {!patch_reg} / {!patch_mem} / {!set_counters} and the platform
      CLINT's mtime: post-step fixups for the Global-Memory and
      CSR-read rules. *)

open Riscv

type mem_access = { vaddr : int64; paddr : int64; size : int; value : int64 }

type trap_info = { exc : Trap.exc; tval : int64 }

(** Everything DiffTest needs to know about one retired step. *)
type commit = {
  pc : int64;
  insn : Insn.t;
  next_pc : int64;
  trap : trap_info option;
  interrupt : Trap.irq option;
  load : mem_access option;
  store : mem_access option;
  sc_failed : bool;
  csr_read : (int * int64) option;
  mmio : bool;
}

type forced =
  | Force_exception of Trap.exc * int64
  | Force_interrupt of Trap.irq
  | Force_sc_failure

type t = {
  st : Arch_state.t;
  plat : Platform.t;
  mutable forced : forced option;
  mutable force_sc_fail : bool;
  mutable autonomous : bool;
      (** [true]: free-running machine (ticks its own clock, takes its
          own interrupts).  [false]: REF mode, driven by DiffTest. *)
  mutable instret : int64;
}

val create :
  ?autonomous:bool -> ?dram_size:int -> hartid:int -> unit -> t

val create_with_platform :
  ?autonomous:bool -> plat:Platform.t -> hartid:int -> unit -> t

val load_program : t -> Asm.program -> unit

(** {1 DRAV control surface} *)

val force_exception : t -> Trap.exc -> int64 -> unit

val force_interrupt : t -> Trap.irq -> unit

val force_sc_failure : t -> unit

val patch_reg : t -> int -> int64 -> unit

val patch_mem : t -> paddr:int64 -> size:int -> value:int64 -> unit

val set_counters : t -> cycle:int64 -> instret:int64 -> unit

val set_mip_bit : t -> int -> bool -> unit

(** {1 Execution} *)

type step_result = Committed of commit | Exited

val step : t -> step_result
(** Retire one instruction (or a forced event). *)

val run : ?max_insns:int -> t -> int
(** Run until exit or budget; returns instructions retired. *)

val exited : t -> bool

val exit_code : t -> int option
