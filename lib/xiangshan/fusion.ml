(* Decode-stage macro-op fusion (Table II: NH feature).

   Certain consecutive instruction pairs are fused into a single
   micro-operation, reducing execution latency and increasing the
   effective capacity of the ROB and issue queues (paper §IV-A).
   Patterns implemented:

     lui rd, hi        ; addi rd, rd, lo     -> load-immediate constant
     slli rd, rs, 32   ; srli rd, rd, 32     -> zext.w
     slli rd, rs1, k   ; add  rd, rd, rs2    -> shNadd (k in 1..3)   *)

open Riscv

let sext32 v = Int64.shift_right (Int64.shift_left v 32) 32

let try_fuse (i1 : Insn.t) (i2 : Insn.t) : Uop.fusion option =
  match (i1, i2) with
  | Lui (rd, hi), Op_imm (ADD, rd2, rs2, lo) when rd <> 0 && rd2 = rd && rs2 = rd
    ->
      Some (Uop.Fused_lui_addi (Int64.add hi lo))
  | Lui (rd, hi), Op_imm_w (ADDW, rd2, rs2, lo)
    when rd <> 0 && rd2 = rd && rs2 = rd ->
      (* lui + addiw: the 32-bit load-immediate idiom *)
      Some (Uop.Fused_lui_addi (sext32 (Int64.add hi lo)))
  | Op_imm (SLL, rd, _, 32L), Op_imm (SRL, rd2, rs2, 32L)
    when rd <> 0 && rd2 = rd && rs2 = rd ->
      Some Uop.Fused_zext_w
  | Op_imm (SLL, rd, _, k), Op (ADD, rd2, ra, rb)
    when rd <> 0 && rd2 = rd && (ra = rd || rb = rd) && k >= 1L && k <= 3L ->
      Some (Uop.Fused_sh_add (Int64.to_int k))
  | _ -> None

(* A fresh array of the uop's architectural sources in rename order:
   integer sources first, then FP ones ([src_kinds] says which).  A
   fused pair reads the pair's external sources (and writes its first
   instruction's destination). *)
let arch_srcs (u : Uop.t) : int array =
  match (u.Uop.fusion, u.Uop.insn, u.Uop.second) with
  | Some (Uop.Fused_lui_addi _), Lui _, _ -> [||]
  | Some Uop.Fused_zext_w, Op_imm (SLL, _, rs, _), _ -> [| rs |]
  | Some (Uop.Fused_sh_add _), Op_imm (SLL, rd, rs1, _), Some (Op (ADD, _, ra, rb))
    ->
      [| rs1; (if ra = rd then rb else ra) |]
  | _, insn, _ -> Insn.srcs insn

(* Source kinds are shared, never-written arrays, so in-flight uops
   (and a LightSSS image) hold one per shape instead of one per uop. *)
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
