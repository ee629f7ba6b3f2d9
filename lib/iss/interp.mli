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

type mem_access = {
  mutable vaddr : int64;
  mutable paddr : int64;
  mutable size : int;
  mutable value : int64;
}

type trap_info = { exc : Trap.exc; tval : int64 }

(** Everything DiffTest needs to know about one retired step.  A REF
    owns one of these and refills it on every {!step} (see {!report}):
    it is valid until that REF's next step, and a caller that keeps a
    commit longer keeps a {!copy_commit}. *)
type commit = {
  mutable pc : int64;
  mutable insn : Insn.t;
  mutable next_pc : int64;
  mutable trap : trap_info option;
  mutable interrupt : Trap.irq option;
  mutable load : mem_access option;
  mutable store : mem_access option;
  mutable sc_failed : bool;
  mutable csr_read : (int * int64) option;
  mutable mmio : bool;
}

type step_result = Committed of commit | Exited

(** The one record a REF reports each retired step into: the commit,
    the two access records its [load] and [store] point at, and the
    [Committed] value {!step} returns, all allocated once per REF.
    The NEMU REF ({!Nemu.Ref_core}) reports through the same
    functions. *)
type report = {
  commit : commit;
  load_acc : mem_access;
  some_load : mem_access option;  (** [Some load_acc] *)
  store_acc : mem_access;
  some_store : mem_access option;  (** [Some store_acc] *)
  committed : step_result;  (** [Committed commit] *)
}

val make_report : unit -> report

val begin_commit : report -> pc:int64 -> insn:Insn.t -> unit
(** Start the report of a step retiring [insn] at [pc]: no trap,
    interrupt, access, SC failure, CSR read or MMIO.  The caller sets
    [next_pc]. *)

val blank_report : report -> unit
(** Reset a report to {!make_report}'s state.  Once DiffTest has
    checked a step, its report is dead until the next step; a LightSSS
    snapshot blanks it so its image does not carry it. *)

val report_load :
  report -> vaddr:int64 -> paddr:int64 -> size:int -> value:int64 -> unit

val report_store :
  report -> vaddr:int64 -> paddr:int64 -> size:int -> value:int64 -> unit

val copy_commit : commit -> commit
(** A commit (with its accesses) that outlives the next step. *)

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
  mutable instret : int;
  report : report;
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

val step : t -> step_result
(** Retire one instruction (or a forced event), reporting it into
    [t.report]; returns [t.report.committed] or [Exited]. *)

val run : ?max_insns:int -> t -> int
(** Run until exit or budget; returns instructions retired. *)

val exited : t -> bool

val exit_code : t -> int option
