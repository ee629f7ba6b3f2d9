(* Predecoded static instructions: everything about an instruction that
   does not depend on the run, computed once per distinct 32-bit word.

   Fetch looks each word up in one process-wide, bounded, direct-mapped
   memo; dispatch and issue read the record instead of re-deriving its
   facts.  Decoding is a pure function of the word, so an entry never
   goes stale -- not on fence.i or sfence.vma, not under self-modifying
   code, not across a LightSSS restore.  The memo is a module-level
   table that no SoC reaches, so snapshots, pool marshalling and a
   served warm cache never carry it; in-flight uops and fetch items
   hold the records they use, and a restored image holds its own
   copies of those, so records are never compared with [==]. *)

open Riscv

type where = In_iq | At_commit

type t = {
  word : int; (* the encoding this record decodes; -1 when built from an Insn.t *)
  insn : Insn.t;
  exec_class : Config.exec_class;
  where : where;
  uses_lq : bool;
  uses_sq : bool;
  rd : int; (* destination, -1 = none (an x0 write needs none) *)
  rd_is_fp : bool;
  srcs : int array; (* architectural sources in rename order *)
  src_fp : bool array;
  latency : int;
}

(* Classify an instruction into an execution class and a pipeline
   placement. *)
let classify (insn : Insn.t) : Config.exec_class * where =
  match insn with
  | Op_imm _ | Op_imm_w _ | Op _ | Op_w _ | Lui _ | Auipc _ | Branch _ ->
      (Config.ALU, In_iq)
  | Mul (m, _, _, _) -> (
      match m with
      | MUL | MULH | MULHSU | MULHU -> (Config.MUL, In_iq)
      | DIV | DIVU | REM | REMU -> (Config.DIV, In_iq))
  | Mul_w (m, _, _, _) -> (
      match m with
      | MULW -> (Config.MUL, In_iq)
      | DIVW | DIVUW | REMW | REMUW -> (Config.DIV, In_iq))
  | Jal _ | Jalr _ -> (Config.JUMP_CSR, In_iq)
  | Load _ | Fld _ -> (Config.LOAD, In_iq)
  | Store _ | Fsd _ -> (Config.STORE, In_iq)
  | Lr _ | Sc _ | Amo _ -> (Config.LOAD, At_commit)
  | Csr _ | Ecall | Ebreak | Mret | Sret | Wfi | Fence | Fence_i
  | Sfence_vma _ | Illegal _ ->
      (Config.JUMP_CSR, At_commit)
  | Fp_rrr (op, _, _, _) -> (
      match op with
      | FADD | FSUB | FMUL -> (Config.FMAC, In_iq)
      | FDIV -> (Config.FMISC, In_iq))
  | Fp_fused _ -> (Config.FMAC, In_iq)
  | Fsqrt_d _ -> (Config.FMISC, In_iq)
  | Fp_sign _ | Fp_minmax _ | Fp_cmp _ | Fcvt_d_l _ | Fcvt_d_lu _
  | Fcvt_d_w _ | Fcvt_l_d _ | Fcvt_lu_d _ | Fcvt_w_d _ | Fmv_x_d _
  | Fmv_d_x _ | Fclass_d _ ->
      (Config.FMISC, In_iq)

(* Execution latency by class (cycles).  FMA is 5 cycles -- the
   cascade FMA unit of the paper. *)
let latency (cls : Config.exec_class) (insn : Insn.t) : int =
  match cls with
  | Config.ALU -> 1
  | Config.MUL -> 3
  | Config.DIV -> 12
  | Config.JUMP_CSR -> 1
  | Config.LOAD -> 1 (* plus memory latency, added by the LSU *)
  | Config.STORE -> 1
  | Config.FMAC -> (
      match insn with Fp_fused _ -> 5 | _ -> 3)
  | Config.FMISC -> (
      match insn with
      | Fp_rrr (FDIV, _, _, _) -> 12
      | Fsqrt_d _ -> 16
      | _ -> 2)

(* Source kinds are shared, never-written arrays: one per shape, not
   one per record. *)
let int_only = Array.init 4 (fun n -> Array.make n false)

let fp_only = Array.init 4 (fun n -> Array.make n true)

let int_then_fp = [| false; true |]

let src_kinds (insn : Insn.t) n : bool array =
  match insn with
  | Fsd _ -> int_then_fp
  | Fp_rrr _ | Fp_sign _ | Fp_minmax _ | Fp_fused _ | Fp_cmp _ | Fsqrt_d _
  | Fcvt_l_d _ | Fcvt_lu_d _ | Fcvt_w_d _ | Fmv_x_d _ | Fclass_d _ ->
      fp_only.(n)
  | _ -> int_only.(n)

let int_srcs = int_only.(3)

let build ~word (insn : Insn.t) =
  let exec_class, where = classify insn in
  let srcs = Insn.srcs insn in
  let int_rd = Insn.int_rd insn and fp_rd = Insn.fp_rd insn in
  {
    word;
    insn;
    exec_class;
    where;
    uses_lq = Insn.is_load insn && where = In_iq;
    uses_sq = (match insn with Store _ | Fsd _ -> true | _ -> false);
    rd = (if int_rd > 0 then int_rd else if int_rd < 0 then fp_rd else -1);
    rd_is_fp = int_rd < 0 && fp_rd >= 0;
    srcs;
    src_fp = src_kinds insn (Array.length srcs);
    latency = latency exec_class insn;
  }

let of_insn insn = build ~word:(-1) insn

(* Direct-mapped, keyed by the word: a slot holding another word is
   simply replaced.  The suite's kernels have at most ~140 distinct
   words each; 4096 slots keep two hot words from sharing a slot rare
   while the table stays at 32 KiB. *)
let memo_bits = 12

let none = of_insn (Insn.Illegal 0l)

let memo = Array.make (1 lsl memo_bits) none

let slot word = ((word * 0x9E3779B1) lsr 20) land ((1 lsl memo_bits) - 1)

let lookup word =
  let word = word land 0xFFFF_FFFF in
  let i = slot word in
  let e = Array.unsafe_get memo i in
  if e.word = word then e
  else begin
    let e = build ~word (Decode.decode_int word) in
    Array.unsafe_set memo i e;
    e
  end
