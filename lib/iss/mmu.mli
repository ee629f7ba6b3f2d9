(** Sv39 address translation for the reference model.

    The REF walks the page table directly in physical memory at the
    instant an access executes; the DUT's hardware walker (with TLB
    caching and store-buffer-delayed visibility) is in
    [Xiangshan.Tlb].  The difference between the two is exactly the
    non-determinism the page-fault diff-rule reconciles (Figure 3). *)

val translation_active : Riscv.Csr.t -> bool
(** Paging applies outside M-mode when satp selects Sv39. *)

val walk : Riscv.Platform.t -> Riscv.Csr.t -> int64 -> Riscv.Pte.access -> int64
(** Full table walk with {!Riscv.Pte.leaf_permits} and canonicality
    checks.
    @raise Riscv.Trap.Exception with the matching page fault. *)

val translate :
  Riscv.Platform.t -> Riscv.Csr.t -> int64 -> Riscv.Pte.access -> int64
(** [walk] when translation is active, identity otherwise. *)
