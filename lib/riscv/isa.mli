(** The RISC-V instruction rules every executor shares: the ISS
    ([Iss.Interp]), NEMU's engines and REF core, and the DUT
    ([Xiangshan.Core]).  Each rule is defined here once and an executor
    calls it where its own pipeline reaches that decision, so no two
    executors can disagree on one and DiffTest has no rule to relax.
    Trap causes and entry live in {!Trap}, the Sv39 access rules in
    {!Pte}, and A-extension arithmetic in [Iss.Alu].

    A rule that refuses raises [Trap.Exception (cause, tval)], as an
    interpreter's own traps do; the DUT catches it once around its
    at-commit execution. *)

val misaligned : int64 -> int -> bool
(** [misaligned vaddr size]: a [size]-byte access (a power of two) at
    [vaddr] is not naturally aligned. *)

val check_aligned : int64 -> int -> Trap.exc -> unit
(** Raise [exc] with the address as tval when {!misaligned}. *)

val check_dram : Platform.t -> int64 -> Trap.exc -> vaddr:int64 -> unit
(** [check_dram plat paddr exc ~vaddr]: an instruction fetch, an LR
    or an AMO reaches DRAM only, so anywhere else raises [exc] (the
    access fault of its kind) with [vaddr] as tval.  A plain load or
    store, floating-point ones too, reaches a device through
    {!Platform.read}/{!Platform.write}; an SC there fails, since no LR
    can have reserved it. *)

val csr_rmw :
  Csr.t -> Insn.csr_op -> rd:int -> rs1:int -> rs1_value:int64 -> int -> int64
(** [csr_rmw csr op ~rd ~rs1 ~rs1_value addr] performs the Zicsr
    read-modify-write and returns the old value for [rd]: CSRRW(I)
    with [rd = 0] does not read, CSRRS(I)/CSRRC(I) with [rs1 = 0] do
    not write, and the immediate forms take [rs1] itself as the
    operand.  An inaccessible CSR raises [Illegal_instruction]. *)

val ecall : Csr.t -> 'a
(** Raise the environment call of the current privilege. *)

val mret : Csr.t -> int64
(** [Trap.mret] from M-mode; elsewhere an illegal instruction. *)

val sret : Csr.t -> int64
(** [Trap.sret] from S- or M-mode; in U-mode an illegal instruction. *)

val sfence_vma : Csr.t -> unit
(** The privilege check of sfence.vma: an illegal instruction in
    U-mode.  What it flushes is the executor's own. *)
