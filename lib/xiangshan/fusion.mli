(** Decode-stage macro-op fusion (Table II: NH feature; paper §IV-A).

    Fused pairs execute as one micro-operation, reducing latency and
    increasing the effective capacity of the ROB and issue queues.
    Patterns: lui+addi / lui+addiw (load-immediate), slli+srli by 32
    (zext.w), and slli-by-1..3 + add (shNadd). *)

val try_fuse : Riscv.Insn.t -> Riscv.Insn.t -> Uop.fusion option
(** [try_fuse first second] for two consecutive instructions; [None]
    when they must not fuse (pattern mismatch or the intermediate
    register escapes). *)

val arch_srcs : Uop.t -> int array
(** A fresh array of the uop's architectural sources in rename order:
    integer sources first, then FP ones.  A fused pair reads the pair's
    external sources and writes its first instruction's destination
    ([Insn.int_rd] of [insn]). *)

val src_kinds : Riscv.Insn.t -> int -> bool array
(** [src_kinds insn n]: which of the [n] sources [arch_srcs] returns
    for a uop led by [insn] are FP registers.  Shared and never
    written: use as [Uop.psrc_fp] only. *)
