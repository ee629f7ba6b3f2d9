(** Pure instruction semantics for integer operations, shared by the
    reference interpreter, NEMU's execution routines and the DUT's
    execution units -- so a DiffTest value mismatch always localises a
    pipeline bug, never divergent arithmetic.

    All RISC-V corner cases are implemented: division by zero yields
    all-ones / the dividend, signed-overflow division saturates, shift
    amounts are masked to 6 (or 5 for word ops) bits, and word
    operations sign-extend their 32-bit results. *)

val sext32 : int64 -> int64
(** Sign-extend the low 32 bits. *)

val eval_alu : Riscv.Insn.alu_op -> int64 -> int64 -> int64

val eval_alu_w : Riscv.Insn.alu_w_op -> int64 -> int64 -> int64

val eval_mul : Riscv.Insn.mul_op -> int64 -> int64 -> int64

val eval_mul_w : Riscv.Insn.mul_w_op -> int64 -> int64 -> int64

val mulhu : int64 -> int64 -> int64
(** High 64 bits of the unsigned 128-bit product. *)

val mulh : int64 -> int64 -> int64

val mulhsu : int64 -> int64 -> int64

val eval_branch : Riscv.Insn.branch_op -> int64 -> int64 -> bool
(** Whether the branch is taken for the given operands. *)

val eval_amo :
  Riscv.Insn.amo_op -> Riscv.Insn.amo_width -> int64 -> int64 -> int64
(** [eval_amo op width old src] is the value written back by the AMO;
    word-width AMOs operate on (and produce) sign-extended 32-bit
    values. *)

val extend_amo : Riscv.Insn.amo_width -> int64 -> int64
(** [extend_amo width raw]: the value an LR or AMO of [width] writes to
    its destination from the loaded bits [raw] (a word is
    sign-extended).  Not inlined, so a doubleword's value keeps its
    box. *)

val load_width : Riscv.Insn.load_op -> int

val store_width : Riscv.Insn.store_op -> int

val extend_load : Riscv.Insn.load_op -> int64 -> int64
(** Sign- or zero-extend a raw loaded value per the load opcode. *)
