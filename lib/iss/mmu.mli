(** Sv39 address translation for the reference model.

    The REF walks the page table directly in physical memory at the
    instant an access executes; the DUT's hardware walker (with TLB
    caching and store-buffer-delayed visibility) is in
    [Xiangshan.Tlb].  Both run {!Riscv.Pte.walk}; the difference
    between them is exactly the non-determinism the page-fault
    diff-rule reconciles (Figure 3). *)

val translate :
  Riscv.Platform.t -> Riscv.Csr.t -> int64 -> Riscv.Pte.access -> int64
(** The physical address of a virtual one: the Sv39 walk over physical
    memory and {!Riscv.Pte.leaf_permits} when translation is active,
    identity otherwise.
    @raise Riscv.Trap.Exception with the matching page fault. *)
