(* Functional execution of non-memory uops at issue time.

   Results are computed with the same shared semantics (Iss.Alu /
   Iss.Fpu) as the reference model, so any DiffTest value mismatch
   localises a pipeline bug rather than an arithmetic divergence. *)

open Riscv [@@warning "-33"]

(* A correctly predicted next pc keeps the prediction's box, so the
   in-flight uops a LightSSS image carries hold one boxed pc, not two
   equal ones. *)
let set_next_pc (u : Uop.t) next =
  u.Uop.next_pc <-
    (if Int64.equal next u.Uop.pred_next then u.Uop.pred_next else next)

(* Source values, read straight from the physical register file: no
   per-issue array. *)
let src0 rn u = Rename.src_value rn u 0

let src1 rn u = Rename.src_value rn u 1

let src2 rn u = Rename.src_value rn u 2

(* Execute [u], reading its renamed sources from the physical register
   file.  Sets result / next_pc / mispredicted. *)
let execute (u : Uop.t) (rn : Rename.t) : unit =
  let pc = u.Uop.pc in
  let seq_next = Int64.add pc (Int64.of_int (4 * u.Uop.n_insns)) in
  set_next_pc u seq_next;
  (match u.Uop.fusion with
  | Some (Uop.Fused_lui_addi c) -> u.Uop.result <- c
  | Some Uop.Fused_zext_w ->
      u.Uop.result <- Int64.logand (src0 rn u) 0xFFFFFFFFL
  | Some (Uop.Fused_sh_add k) ->
      u.Uop.result <- Int64.add (Int64.shift_left (src0 rn u) k) (src1 rn u)
  | None -> (
      match Uop.insn u with
      | Lui (_, imm) -> u.Uop.result <- imm
      | Auipc (_, imm) -> u.Uop.result <- Int64.add pc imm
      | Jal (_, off) ->
          u.Uop.result <- seq_next;
          set_next_pc u (Int64.add pc off)
      | Jalr (_, _, imm) ->
          u.Uop.result <- seq_next;
          set_next_pc u
            (Int64.logand (Int64.add (src0 rn u) imm) (Int64.lognot 1L))
      | Branch (op, _, _, off) ->
          if Iss.Alu.eval_branch op (src0 rn u) (src1 rn u) then
            set_next_pc u (Int64.add pc off)
      | Op_imm (op, _, _, imm) ->
          u.Uop.result <- Iss.Alu.eval_alu op (src0 rn u) imm
      | Op_imm_w (op, _, _, imm) ->
          u.Uop.result <- Iss.Alu.eval_alu_w op (src0 rn u) imm
      | Op (op, _, _, _) ->
          u.Uop.result <- Iss.Alu.eval_alu op (src0 rn u) (src1 rn u)
      | Op_w (op, _, _, _) ->
          u.Uop.result <- Iss.Alu.eval_alu_w op (src0 rn u) (src1 rn u)
      | Mul (op, _, _, _) ->
          u.Uop.result <- Iss.Alu.eval_mul op (src0 rn u) (src1 rn u)
      | Mul_w (op, _, _, _) ->
          u.Uop.result <- Iss.Alu.eval_mul_w op (src0 rn u) (src1 rn u)
      | Fp_rrr (op, _, _, _) ->
          let f =
            match op with
            | FADD -> Iss.Fpu.add
            | FSUB -> Iss.Fpu.sub
            | FMUL -> Iss.Fpu.mul
            | FDIV -> Iss.Fpu.div
          in
          u.Uop.result <- f (src0 rn u) (src1 rn u)
      | Fp_fused (op, _, _, _, _) ->
          u.Uop.result <-
            Iss.Fpu.fused op (src0 rn u) (src1 rn u) (src2 rn u)
      | Fp_sign (op, _, _, _) ->
          u.Uop.result <- Iss.Fpu.sign_inject op (src0 rn u) (src1 rn u)
      | Fp_minmax (op, _, _, _) ->
          u.Uop.result <- Iss.Fpu.minmax op (src0 rn u) (src1 rn u)
      | Fp_cmp (op, _, _, _) ->
          u.Uop.result <- Iss.Fpu.cmp op (src0 rn u) (src1 rn u)
      | Fsqrt_d _ -> u.Uop.result <- Iss.Fpu.sqrt (src0 rn u)
      | Fcvt_d_l _ -> u.Uop.result <- Iss.Fpu.cvt_d_l (src0 rn u)
      | Fcvt_d_lu _ -> u.Uop.result <- Iss.Fpu.cvt_d_lu (src0 rn u)
      | Fcvt_d_w _ -> u.Uop.result <- Iss.Fpu.cvt_d_w (src0 rn u)
      | Fcvt_l_d _ -> u.Uop.result <- Iss.Fpu.cvt_l_d (src0 rn u)
      | Fcvt_lu_d _ -> u.Uop.result <- Iss.Fpu.cvt_lu_d (src0 rn u)
      | Fcvt_w_d _ -> u.Uop.result <- Iss.Fpu.cvt_w_d (src0 rn u)
      | Fmv_x_d _ | Fmv_d_x _ -> u.Uop.result <- src0 rn u
      | Fclass_d _ -> u.Uop.result <- Iss.Fpu.classify (src0 rn u)
      | Load _ | Fld _ | Store _ | Fsd _ | Lr _ | Sc _ | Amo _ | Csr _
      | Ecall | Ebreak | Mret | Sret | Wfi | Fence | Fence_i | Sfence_vma _
      | Illegal _ ->
          (* memory and system uops are executed by the LSU / at
             commit, never through this path *)
          assert false));
  u.Uop.mispredicted <- u.Uop.next_pc <> u.Uop.pred_next
