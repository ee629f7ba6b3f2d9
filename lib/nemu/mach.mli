(** Lightweight machine state shared by all interpreter engines (NEMU
    and the Spike / QEMU-TCI / Dromajo baselines).

    The integer register file has 33 slots: slot 32 ({!sink}) is an
    unused variable.  NEMU's compiler redirects writes whose
    destination is x0 to the sink so execution routines never need an
    [if rd <> 0] check (paper §III-D1b); the baseline engines use the
    same register file with the traditional check.

    Register files are Bigarrays so int64 register writes are unboxed
    plain stores (no allocation, no GC write barrier).

    [Mach] also hosts the engines' host TLB: direct-mapped
    VPN->page-base caches (one per access kind, partitioned by
    privilege) behind the one {!translate} every engine calls.  Plain
    privilege switches (trap entry/return) go through
    {!take_trap}/{!take_irq}/{!sync_priv}, which just retarget the
    active partition; events that can remap pages or change
    permissions (sfence.vma, satp/mstatus/sstatus writes) must go
    through {!sync_translation}, which also flushes, so the TLB and
    the cached {!field-paging} flag stay coherent.

    {!field-code_epoch} says when cached code goes stale: fence.i,
    sfence.vma and satp writes move it (in {!Exec_generic.exec}), and
    every engine's cache of decoded code drops its contents once the
    epoch has moved. *)

open Riscv

type regfile =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  regs : regfile; (** 33 entries; slot 32 is the x0 write sink *)
  fregs : regfile;
  mutable pc : int64;
  csr : Csr.t;
  plat : Platform.t;
  mutable reservation : int64 option;
  mutable instret : int;
  mutable running : bool;
  mutable code_epoch : int;
      (** moved by fence.i, sfence.vma and satp writes; a code cache
          filled in an earlier epoch is stale *)
  mutable paging : bool;
      (** cached {!Riscv.Pte.translation_active}; kept in sync by
          {!sync_priv} *)
  mutable tlb_off : int;
      (** active privilege's TLB partition offset (0 = U, 3 x size = S) *)
  tlb_tags : int64 array;
  tlb_base : int64 array;
}

val sink : int

val create : ?dram_size:int -> ?hartid:int -> unit -> t

val load_program : t -> Asm.program -> unit

val get_reg : t -> int -> int64

val set_reg : t -> int -> int64 -> unit

val exited : t -> bool

val exit_code : t -> int option

(** {1 Host TLB} *)

val translate : t -> Pte.access -> int64 -> int64
(** [translate t access va] is [va]'s physical address: [va] itself
    without paging, else the host TLB's entry for [access], and on a
    miss {!Iss.Mmu.translate}, whose result is cached when it lands in
    DRAM.
    @raise Trap.Exception with the walk's page fault. *)

val sync_priv : t -> unit
(** Recompute the cached [paging] flag and retarget the TLB partition
    after a privilege change; does not flush. *)

val sync_translation : t -> unit
(** {!sync_priv} plus a full TLB flush.  Must be called after any
    satp/mstatus/sstatus write or sfence.vma. *)

val take_trap : t -> Trap.exc -> int64 -> epc:int64 -> unit
(** Architectural trap entry (sets [pc]) plus {!sync_priv}. *)

val take_irq : t -> Trap.irq -> unit
(** Interrupt entry at [epc = pc], plus {!sync_priv}. *)

val check_running : t -> unit
(** Fold the platform's exit flag into [running]. *)

val arch_state_digest : t -> int64 * int64 array * int64 array
