(* RV64 instruction AST.

   The subset implemented is RV64IMA + Zicsr + Zifencei + a subset of D
   (double-precision floating point) -- enough to run the synthetic
   SPEC-like workloads, the micro-kernel with Sv39 paging, and the SMP
   atomics tests.  Compressed (C) instructions are not implemented; the
   substitution is documented in DESIGN.md. *)

type alu_op = ADD | SUB | SLL | SLT | SLTU | XOR | SRL | SRA | OR | AND
[@@deriving show { with_path = false }, eq, ord]

type alu_w_op = ADDW | SUBW | SLLW | SRLW | SRAW
[@@deriving show { with_path = false }, eq, ord]

type mul_op = MUL | MULH | MULHSU | MULHU | DIV | DIVU | REM | REMU
[@@deriving show { with_path = false }, eq, ord]

type mul_w_op = MULW | DIVW | DIVUW | REMW | REMUW
[@@deriving show { with_path = false }, eq, ord]

type branch_op = BEQ | BNE | BLT | BGE | BLTU | BGEU
[@@deriving show { with_path = false }, eq, ord]

type load_op = LB | LH | LW | LD | LBU | LHU | LWU
[@@deriving show { with_path = false }, eq, ord]

type store_op = SB | SH | SW | SD
[@@deriving show { with_path = false }, eq, ord]

type csr_op = CSRRW | CSRRS | CSRRC | CSRRWI | CSRRSI | CSRRCI
[@@deriving show { with_path = false }, eq, ord]

type amo_op =
  | AMOSWAP
  | AMOADD
  | AMOXOR
  | AMOAND
  | AMOOR
  | AMOMIN
  | AMOMAX
  | AMOMINU
  | AMOMAXU
[@@deriving show { with_path = false }, eq, ord]

type amo_width = Width_w | Width_d
[@@deriving show { with_path = false }, eq, ord]

type fp_rrr_op = FADD | FSUB | FMUL | FDIV
[@@deriving show { with_path = false }, eq, ord]

type fp_fused_op = FMADD | FMSUB | FNMSUB | FNMADD
[@@deriving show { with_path = false }, eq, ord]

type fp_sign_op = FSGNJ | FSGNJN | FSGNJX
[@@deriving show { with_path = false }, eq, ord]

type fp_cmp_op = FEQ | FLT | FLE
[@@deriving show { with_path = false }, eq, ord]

type fp_minmax_op = FMIN | FMAX
[@@deriving show { with_path = false }, eq, ord]

(* Registers are bare ints 0..31; rd = 0 writes are architectural no-ops
   for integer registers. *)
type t =
  | Lui of int * int64 (* rd, sign-extended (imm20 << 12) *)
  | Auipc of int * int64
  | Jal of int * int64 (* rd, pc-relative offset *)
  | Jalr of int * int * int64 (* rd, rs1, imm *)
  | Branch of branch_op * int * int * int64 (* rs1, rs2, offset *)
  | Load of load_op * int * int * int64 (* rd, rs1, imm *)
  | Store of store_op * int * int * int64 (* rs2, rs1, imm *)
  | Op_imm of alu_op * int * int * int64 (* rd, rs1, imm *)
  | Op_imm_w of alu_w_op * int * int * int64
  | Op of alu_op * int * int * int (* rd, rs1, rs2 *)
  | Op_w of alu_w_op * int * int * int
  | Mul of mul_op * int * int * int
  | Mul_w of mul_w_op * int * int * int
  | Lr of amo_width * int * int (* rd, rs1 *)
  | Sc of amo_width * int * int * int (* rd, rs1, rs2 *)
  | Amo of amo_op * amo_width * int * int * int (* rd, rs1, rs2 *)
  | Csr of csr_op * int * int * int (* rd, rs1-or-zimm, csr address *)
  | Ecall
  | Ebreak
  | Mret
  | Sret
  | Wfi
  | Fence
  | Fence_i
  | Sfence_vma of int * int (* rs1, rs2 *)
  | Fld of int * int * int64 (* frd, rs1, imm *)
  | Fsd of int * int * int64 (* frs2, rs1, imm *)
  | Fp_rrr of fp_rrr_op * int * int * int (* frd, frs1, frs2 *)
  | Fp_fused of fp_fused_op * int * int * int * int (* frd, frs1, frs2, frs3 *)
  | Fp_sign of fp_sign_op * int * int * int
  | Fp_minmax of fp_minmax_op * int * int * int
  | Fp_cmp of fp_cmp_op * int * int * int (* rd(int), frs1, frs2 *)
  | Fsqrt_d of int * int (* frd, frs1 *)
  | Fcvt_d_l of int * int (* frd, rs1 *)
  | Fcvt_d_lu of int * int
  | Fcvt_d_w of int * int
  | Fcvt_l_d of int * int (* rd, frs1 *)
  | Fcvt_lu_d of int * int
  | Fcvt_w_d of int * int
  | Fmv_x_d of int * int (* rd, frs1 *)
  | Fmv_d_x of int * int (* frd, rs1 *)
  | Fclass_d of int * int (* rd, frs1 *)
  | Illegal of int32
[@@deriving show { with_path = false }, eq, ord]

let is_branch = function Branch _ -> true | _ -> false

let is_jump = function Jal _ | Jalr _ -> true | _ -> false

let is_control_flow i =
  is_branch i || is_jump i
  || match i with Mret | Sret | Ecall | Ebreak -> true | _ -> false

let is_load = function
  | Load _ | Fld _ | Lr _ -> true
  | _ -> false

let is_store = function
  | Store _ | Fsd _ | Sc _ | Amo _ -> true
  | _ -> false

let is_amo = function Amo _ | Lr _ | Sc _ -> true | _ -> false

let is_fp = function
  | Fld _ | Fsd _ | Fp_rrr _ | Fp_fused _ | Fp_sign _ | Fp_minmax _
  | Fp_cmp _ | Fsqrt_d _ | Fcvt_d_l _ | Fcvt_d_lu _ | Fcvt_d_w _
  | Fcvt_l_d _ | Fcvt_lu_d _ | Fcvt_w_d _ | Fmv_x_d _ | Fmv_d_x _
  | Fclass_d _ ->
      true
  | _ -> false

let is_system = function
  | Csr _ | Ecall | Ebreak | Mret | Sret | Wfi | Fence | Fence_i
  | Sfence_vma _ ->
      true
  | _ -> false

(* Register usage, for rename and dependency tracking, without
   building lists: [srcs] is a fresh array of the source registers,
   integer ones first, then FP ones; [int_rd] / [fp_rd] the destination
   register, -1 when there is none. *)
let srcs = function
  | Lui _ | Auipc _ | Jal _
  | Csr ((CSRRWI | CSRRSI | CSRRCI), _, _, _)
  | Ecall | Ebreak | Mret | Sret | Wfi | Fence | Fence_i | Illegal _ ->
      [||]
  | Jalr (_, rs1, _)
  | Load (_, _, rs1, _)
  | Op_imm (_, _, rs1, _)
  | Op_imm_w (_, _, rs1, _)
  | Lr (_, _, rs1)
  | Csr (_, _, rs1, _)
  | Fld (_, rs1, _)
  | Fcvt_d_l (_, rs1) | Fcvt_d_lu (_, rs1) | Fcvt_d_w (_, rs1) | Fmv_d_x (_, rs1)
    ->
      [| rs1 |]
  | Branch (_, rs1, rs2, _)
  | Store (_, rs2, rs1, _)
  | Op (_, _, rs1, rs2)
  | Op_w (_, _, rs1, rs2)
  | Mul (_, _, rs1, rs2)
  | Mul_w (_, _, rs1, rs2)
  | Sc (_, _, rs1, rs2)
  | Amo (_, _, _, rs1, rs2)
  | Sfence_vma (rs1, rs2) ->
      [| rs1; rs2 |]
  | Fsd (frs2, rs1, _) -> [| rs1; frs2 |]
  | Fp_rrr (_, _, f1, f2)
  | Fp_sign (_, _, f1, f2)
  | Fp_minmax (_, _, f1, f2)
  | Fp_cmp (_, _, f1, f2) ->
      [| f1; f2 |]
  | Fp_fused (_, _, f1, f2, f3) -> [| f1; f2; f3 |]
  | Fsqrt_d (_, f1)
  | Fcvt_l_d (_, f1)
  | Fcvt_lu_d (_, f1)
  | Fcvt_w_d (_, f1)
  | Fmv_x_d (_, f1)
  | Fclass_d (_, f1) ->
      [| f1 |]

let int_rd = function
  | Lui (rd, _) | Auipc (rd, _) | Jal (rd, _) | Jalr (rd, _, _)
  | Load (_, rd, _, _)
  | Op_imm (_, rd, _, _)
  | Op_imm_w (_, rd, _, _)
  | Op (_, rd, _, _)
  | Op_w (_, rd, _, _)
  | Mul (_, rd, _, _)
  | Mul_w (_, rd, _, _)
  | Lr (_, rd, _)
  | Sc (_, rd, _, _)
  | Amo (_, _, rd, _, _)
  | Csr (_, rd, _, _)
  | Fp_cmp (_, rd, _, _)
  | Fcvt_l_d (rd, _) | Fcvt_lu_d (rd, _) | Fcvt_w_d (rd, _) | Fmv_x_d (rd, _)
  | Fclass_d (rd, _) ->
      rd
  | _ -> -1

let fp_rd = function
  | Fld (frd, _, _)
  | Fp_rrr (_, frd, _, _)
  | Fp_sign (_, frd, _, _)
  | Fp_minmax (_, frd, _, _)
  | Fp_fused (_, frd, _, _, _)
  | Fsqrt_d (frd, _)
  | Fcvt_d_l (frd, _) | Fcvt_d_lu (frd, _) | Fcvt_d_w (frd, _) | Fmv_d_x (frd, _)
    ->
      frd
  | _ -> -1

let reg_name r =
  match r with
  | 0 -> "zero"
  | 1 -> "ra"
  | 2 -> "sp"
  | 3 -> "gp"
  | 4 -> "tp"
  | 5 | 6 | 7 -> Printf.sprintf "t%d" (r - 5)
  | 8 -> "s0"
  | 9 -> "s1"
  | n when n >= 10 && n <= 17 -> Printf.sprintf "a%d" (n - 10)
  | n when n >= 18 && n <= 27 -> Printf.sprintf "s%d" (n - 16)
  | n when n >= 28 && n <= 31 -> Printf.sprintf "t%d" (n - 25)
  | n -> Printf.sprintf "x%d" n
