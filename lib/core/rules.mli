(** The standard diff-rule set for RISC-V processors (paper §III-B2).

    Every constructor returns a fresh rule instance (fire counters are
    per-DiffTest).  The rules:

    - {!page_fault_forcing}: the DUT may take page faults the REF
      would not (speculative walks racing store-buffer-resident PTE
      writes, cached failed translations) -- Figure 3.  It forces the
      three page-fault causes only: the REF takes every other
      exception itself, by the ISA rules it shares with the DUT
      ([Riscv.Isa]);
    - {!interrupt_forcing}: interrupt arrival cycles are
      micro-architectural, so the REF takes them when the DUT does;
    - {!sc_failure_forcing}: SC may fail on reservation timeout;
    - {!csr_read_rule}: cycle/time/instret/mip reads propagate the DUT
      value (standing in for the paper's ~120 machine-mode CSR value
      rules);
    - {!mmio_load_trust}: device load values ([ld] and [fld]) are
      trusted;
    - {!global_memory_load}: multi-core load values are checked
      against the Global Memory history (§III-B2b). *)

val page_fault_forcing : unit -> Rule.t

val interrupt_forcing : unit -> Rule.t

val sc_failure_forcing : unit -> Rule.t

val nondet_csrs : int list

val csr_read_rule : unit -> Rule.t

val mmio_load_trust : unit -> Rule.t

val global_memory_load : unit -> Rule.t

val standard : unit -> Rule.t list
