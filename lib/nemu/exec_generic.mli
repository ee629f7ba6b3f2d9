(** Generic (non-specialised) execution of decoded instructions on a
    {!Mach.t}, with pluggable floating-point arithmetic.

    This is the executor the baseline engines pay for on every
    instruction: dromajo_like re-decodes and calls it each step;
    spike_like caches decodes but keeps the generic dispatch and plugs
    in SoftFloat (the SPECfp slowdown of §III-D2); qemu_tci_like uses
    it for instructions outside its bytecode.  NEMU instead compiles
    specialised closures ({!Fast}). *)

open Riscv

type fp_ops = {
  f_add : int64 -> int64 -> int64;
  f_sub : int64 -> int64 -> int64;
  f_mul : int64 -> int64 -> int64;
  f_div : int64 -> int64 -> int64;
  f_sqrt : int64 -> int64;
  f_fused : Insn.fp_fused_op -> int64 -> int64 -> int64 -> int64;
}

val host_fp : fp_ops

val soft_fp : fp_ops
(** Berkeley-SoftFloat-style bit-exact integer implementation. *)

val load : Mach.t -> int64 -> int -> int64
(** Aligned virtual load (fast DRAM path, device fallback).
    @raise Trap.Exception on misalignment / access / page faults. *)

val store : Mach.t -> int64 -> int -> int64 -> unit

val exec : fp_ops -> Mach.t -> int64 -> Insn.t -> unit
(** Execute one decoded instruction at a pc; updates [Mach.pc].  The
    one place system instructions run: fence.i, sfence.vma and satp
    writes move {!Mach.field-code_epoch} here.
    @raise Trap.Exception for traps (callers perform trap entry). *)

val csr : Mach.t -> Insn.csr_op -> rd:int -> rs1:int -> int -> int64
(** [csr m op ~rd ~rs1 addr]: a CSR instruction's read-modify-write
    ({!Riscv.Isa.csr_rmw}), returning the old value, with the host-TLB
    re-sync and the code-epoch move a satp or status write needs.
    {!exec}'s [Csr] arm; the NEMU REF calls it to report the read. *)

val fetch_decode : ?at:int64 -> Mach.t -> Insn.t
(** Fetch and decode at [?at] (default [Mach.pc]) without touching
    [Mach.pc]; the NEMU superblock compiler uses [?at] for lookahead. *)

val step : fp_ops -> Mach.t -> unit
(** Full fetch/decode/execute step with trap handling. *)
