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
