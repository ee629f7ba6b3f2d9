(** L1 TLBs + STLB + hardware page-table walker.

    The walker reads PTEs *through the cache hierarchy* (its own port
    below L2, like XiangShan's PTW), so it sees memory as of the last
    store-buffer drain rather than the core's retired-but-undrained
    stores; and failed translations are deliberately cached until an
    sfence.vma.  Together these reproduce the speculative page-fault
    behaviour of the paper's Figure 3. *)

(** One TLB level, flat: slot [i] across four copy-on-write tables. *)
type tlb_array = {
  size : int;
  vpn : Riscv.Cow.t;  (** -1 invalid *)
  ppn : Riscv.Cow.t;  (** 4K-granular ppn, or -1 for a cached fault *)
  flags : Riscv.Cow.t;  (** the leaf PTE's flag bits *)
  lru : Riscv.Cow.t;
  mutable clock : int;
}

type t = {
  itlb : tlb_array;
  dtlb : tlb_array;
  stlb : tlb_array;
  ptw_port : Softmem.Cache.t;
  mutable walks : int;
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  mutable stlb_hits : int;
  mutable cached_fault_hits : int;
  mutable faulted : bool;  (** the last {!translate} page-faulted *)
  mutable exc : Riscv.Trap.exc;
      (** the last fault's cause, with [faulted]; its tval is the
          virtual address *)
  mutable latency : int;  (** the last {!translate}'s latency in cycles *)
  pa : Bytes.t;
      (** the last translation's physical address, unboxed, without
          [faulted] (read it with {!paddr}) *)
}

val create : Config.t -> ptw_port:Softmem.Cache.t -> t

val tables : t -> Riscv.Cow.t list
(** Every TLB table, in a fixed order (LightSSS snapshots these). *)

val flush : t -> unit
(** sfence.vma: drop every cached translation, including faults. *)

val corrupt_data_ppn : t -> int
(** Fault injection: force the low ppn bit of every cached data-side
    mapping (dtlb + stlb), modelling a stale translation surviving a
    PTE update.  Idempotent, so periodic re-injection never heals an
    entry.  Returns the number of entries newly corrupted. *)

val translate : t -> Riscv.Csr.t -> int64 -> Riscv.Pte.access -> unit
(** Translate a virtual address under the *committed* CSR state: on a
    TLB miss, {!Riscv.Pte.walk} through the PTW cache port.  Checks
    {!Riscv.Pte.leaf_permits} on the leaf and reports the outcome into
    [faulted], [exc], [latency] (0 on an L1 TLB hit and in bare or M
    mode) and the physical address ({!paddr}).  Allocates nothing
    unless it walks the page table. *)

val paddr : t -> int64
(** The last successful {!translate}'s physical address. *)
