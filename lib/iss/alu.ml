(* Pure instruction semantics for integer operations, shared by the
   reference interpreter, NEMU's execution routines and the DUT's
   execution units -- so that a value mismatch in DiffTest always
   indicates a pipeline bug, never divergent arithmetic. *)

let sext32 v = Int64.shift_right (Int64.shift_left v 32) 32

let eval_alu (op : Riscv.Insn.alu_op) (a : int64) (b : int64) : int64 =
  match op with
  | ADD -> Int64.add a b
  | SUB -> Int64.sub a b
  | SLL -> Int64.shift_left a (Int64.to_int b land 0x3F)
  | SLT -> if Int64.compare a b < 0 then 1L else 0L
  | SLTU -> if Int64.unsigned_compare a b < 0 then 1L else 0L
  | XOR -> Int64.logxor a b
  | SRL -> Int64.shift_right_logical a (Int64.to_int b land 0x3F)
  | SRA -> Int64.shift_right a (Int64.to_int b land 0x3F)
  | OR -> Int64.logor a b
  | AND -> Int64.logand a b

let eval_alu_w (op : Riscv.Insn.alu_w_op) (a : int64) (b : int64) : int64 =
  match op with
  | ADDW -> sext32 (Int64.add a b)
  | SUBW -> sext32 (Int64.sub a b)
  | SLLW -> sext32 (Int64.shift_left a (Int64.to_int b land 0x1F))
  | SRLW ->
      sext32
        (Int64.shift_right_logical
           (Int64.logand a 0xFFFFFFFFL)
           (Int64.to_int b land 0x1F))
  | SRAW -> sext32 (Int64.shift_right (sext32 a) (Int64.to_int b land 0x1F))

let mulhu a b = fst (Softfloat.mul_u128 a b)

let mulh a b =
  let hi = mulhu a b in
  let hi = if a < 0L then Int64.sub hi b else hi in
  if b < 0L then Int64.sub hi a else hi

let mulhsu a b =
  let hi = mulhu a b in
  if a < 0L then Int64.sub hi b else hi

let eval_mul (op : Riscv.Insn.mul_op) (a : int64) (b : int64) : int64 =
  match op with
  | MUL -> Int64.mul a b
  | MULH -> mulh a b
  | MULHSU -> mulhsu a b
  | MULHU -> mulhu a b
  | DIV ->
      if b = 0L then -1L
      else if a = Int64.min_int && b = -1L then Int64.min_int
      else Int64.div a b
  | DIVU -> if b = 0L then -1L else Int64.unsigned_div a b
  | REM ->
      if b = 0L then a
      else if a = Int64.min_int && b = -1L then 0L
      else Int64.rem a b
  | REMU -> if b = 0L then a else Int64.unsigned_rem a b

let eval_mul_w (op : Riscv.Insn.mul_w_op) (a : int64) (b : int64) : int64 =
  let a32 = sext32 a and b32 = sext32 b in
  let u32 v = Int64.logand v 0xFFFFFFFFL in
  match op with
  | MULW -> sext32 (Int64.mul a32 b32)
  | DIVW ->
      if b32 = 0L then -1L
      else if a32 = 0xFFFFFFFF80000000L && b32 = -1L then a32
      else sext32 (Int64.div a32 b32)
  | DIVUW ->
      if b32 = 0L then -1L else sext32 (Int64.div (u32 a) (u32 b))
  | REMW ->
      if b32 = 0L then a32
      else if a32 = 0xFFFFFFFF80000000L && b32 = -1L then 0L
      else sext32 (Int64.rem a32 b32)
  | REMUW -> if b32 = 0L then a32 else sext32 (Int64.rem (u32 a) (u32 b))

let eval_branch (op : Riscv.Insn.branch_op) (a : int64) (b : int64) : bool =
  match op with
  | BEQ -> a = b
  | BNE -> a <> b
  | BLT -> Int64.compare a b < 0
  | BGE -> Int64.compare a b >= 0
  | BLTU -> Int64.unsigned_compare a b < 0
  | BGEU -> Int64.unsigned_compare a b >= 0

let eval_amo (op : Riscv.Insn.amo_op) (width : Riscv.Insn.amo_width)
    (old_v : int64) (src : int64) : int64 =
  let old_v, src =
    match width with
    | Width_d -> (old_v, src)
    | Width_w -> (sext32 old_v, sext32 src)
  in
  let r =
    match op with
    | AMOSWAP -> src
    | AMOADD -> Int64.add old_v src
    | AMOXOR -> Int64.logxor old_v src
    | AMOAND -> Int64.logand old_v src
    | AMOOR -> Int64.logor old_v src
    | AMOMIN -> if Int64.compare old_v src < 0 then old_v else src
    | AMOMAX -> if Int64.compare old_v src > 0 then old_v else src
    | AMOMINU -> if Int64.unsigned_compare old_v src < 0 then old_v else src
    | AMOMAXU -> if Int64.unsigned_compare old_v src > 0 then old_v else src
  in
  match width with Width_d -> r | Width_w -> sext32 r

let[@inline] amo_size (width : Riscv.Insn.amo_width) =
  match width with Width_w -> 4 | Width_d -> 8

let[@inline] extend_amo (width : Riscv.Insn.amo_width) (raw : int64) =
  match width with Width_w -> sext32 raw | Width_d -> raw

let load_width = function
  | Riscv.Insn.LB | LBU -> 1
  | LH | LHU -> 2
  | LW | LWU -> 4
  | LD -> 8

let store_width = function Riscv.Insn.SB -> 1 | SH -> 2 | SW -> 4 | SD -> 8

let extend_load (op : Riscv.Insn.load_op) (raw : int64) : int64 =
  match op with
  | LB -> Int64.shift_right (Int64.shift_left raw 56) 56
  | LBU -> Int64.logand raw 0xFFL
  | LH -> Int64.shift_right (Int64.shift_left raw 48) 48
  | LHU -> Int64.logand raw 0xFFFFL
  | LW -> sext32 raw
  | LWU -> Int64.logand raw 0xFFFFFFFFL
  | LD -> raw
