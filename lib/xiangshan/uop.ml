(* Micro-operations flowing through the out-of-order backend.  One uop
   normally covers one instruction; with macro-op fusion enabled a uop
   may cover two (n_insns = 2). *)

open Riscv

type fusion =
  | Fused_lui_addi of int64 (* resulting constant *)
  | Fused_zext_w (* slli 32 ; srli 32 *)
  | Fused_sh_add of int (* slli rd,rs1,k ; add rd,rd,rs2 *)

type where = In_iq | At_commit | Eliminated

type state = Waiting | Issued | Completed

type t = {
  seq : int; (* global program-order sequence number *)
  pc : int64;
  insn : Insn.t;
  second : Insn.t option; (* second instruction covered by fusion *)
  fusion : fusion option;
  n_insns : int;
  pred_next : int64; (* predicted next pc after this uop's insns *)
  exec_class : Config.exec_class;
  where : where;
  (* rename *)
  mutable arch_rd : int; (* -1 = none *)
  mutable rd_is_fp : bool;
  mutable prd : int; (* -1 = none *)
  mutable old_prd : int;
  mutable psrc : int array;
  mutable psrc_fp : bool array;
  mutable src2 : int; (* second fused source arch reg (for sh_add), -1 *)
  (* dynamic status *)
  mutable state : state;
  mutable done_at : int;
  mutable result : int64;
  mutable next_pc : int64; (* actual *)
  mutable mispredicted : bool;
  mutable exc : (Trap.exc * int64) option;
  mutable priority : bool; (* PUBS high priority *)
  mutable squashed : bool;
  mutable in_iq : bool; (* resident in an issue queue: O(1) membership
                           for phase-2 issue revalidation *)
  mutable eliminated : bool; (* move-eliminated: result read at commit *)
  (* memory *)
  mutable vaddr : int64;
  mutable paddr : int64;
  mutable msize : int;
  mutable sdata : int64; (* store data *)
  mutable addr_ready : bool;
  mutable mmio : bool;
  mutable load_value : int64;
  mutable mem_cycle : int; (* when the access touched memory *)
  mutable sc_failed : bool;
  mutable csr_read : (int * int64) option;
  mutable committed_store : bool; (* in SQ, waiting for SB drain *)
}

(* The LSU queue an instruction takes at dispatch: pipelined loads
   enter the LQ, stores the SQ (LR/SC/AMO execute at the ROB head). *)
let uses_lq insn where = Insn.is_load insn && where = In_iq

let uses_sq (insn : Insn.t) = match insn with Store _ | Fsd _ -> true | _ -> false

let is_load u = uses_lq u.insn u.where

let is_store u = uses_sq u.insn

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

let make ~seq ~pc ~insn ~second ~fusion ~pred_next : t =
  let exec_class, where = classify insn in
  let n_insns = match second with Some _ -> 2 | None -> 1 in
  {
    seq;
    pc;
    insn;
    second;
    fusion;
    n_insns;
    pred_next;
    exec_class;
    where;
    arch_rd = -1;
    rd_is_fp = false;
    prd = -1;
    old_prd = -1;
    psrc = [||];
    psrc_fp = [||];
    src2 = -1;
    state = Waiting;
    done_at = max_int;
    result = 0L;
    next_pc = pred_next;
    mispredicted = false;
    exc = None;
    priority = false;
    squashed = false;
    in_iq = false;
    eliminated = false;
    vaddr = 0L;
    paddr = 0L;
    msize = 0;
    sdata = 0L;
    addr_ready = false;
    mmio = false;
    load_value = 0L;
    mem_cycle = 0;
    sc_failed = false;
    csr_read = None;
    committed_store = false;
  }

(* What a freed queue or plan-buffer slot holds: one shared uop, never
   written, so an empty slot keeps no retired or squashed uop alive (nor
   in a LightSSS image).  Occupancy comes from each structure's count,
   never from comparing against this value: a restored image holds its
   own copy of it. *)
let sentinel =
  make ~seq:(-1) ~pc:0L ~insn:(Insn.Illegal 0l) ~second:None ~fusion:None
    ~pred_next:0L

(* Age-ordered uop queues (the issue queues, the LQ and the SQ) are
   arrays whose first [n] slots are live.  These close gaps in place,
   keeping age order, reset the freed slots to [sentinel] and return
   the new count. *)
let compact (q : t array) n ~(keep : t -> bool) =
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let u = q.(i) in
    if keep u then begin
      q.(!kept) <- u;
      incr kept
    end
  done;
  Array.fill q !kept (n - !kept) sentinel;
  !kept

let remove_seq (q : t array) n seq =
  let i = ref 0 in
  while !i < n && q.(!i).seq <> seq do
    incr i
  done;
  if !i >= n then n
  else begin
    Array.blit q (!i + 1) q !i (n - !i - 1);
    q.(n - 1) <- sentinel;
    n - 1
  end
