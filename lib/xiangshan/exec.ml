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

(* Execute [u] given its source register values (in psrc order).
   Sets result / next_pc / mispredicted. *)
let execute (u : Uop.t) (srcs : int64 array) : unit =
  let pc = u.Uop.pc in
  let seq_next = Int64.add pc (Int64.of_int (4 * u.Uop.n_insns)) in
  set_next_pc u seq_next;
  (match u.Uop.fusion with
  | Some (Uop.Fused_lui_addi c) -> u.Uop.result <- c
  | Some Uop.Fused_zext_w ->
      u.Uop.result <- Int64.logand srcs.(0) 0xFFFFFFFFL
  | Some (Uop.Fused_sh_add k) ->
      u.Uop.result <- Int64.add (Int64.shift_left srcs.(0) k) srcs.(1)
  | None -> (
      match u.Uop.insn with
      | Lui (_, imm) -> u.Uop.result <- imm
      | Auipc (_, imm) -> u.Uop.result <- Int64.add pc imm
      | Jal (_, off) ->
          u.Uop.result <- seq_next;
          set_next_pc u (Int64.add pc off)
      | Jalr (_, _, imm) ->
          u.Uop.result <- seq_next;
          set_next_pc u
            (Int64.logand (Int64.add srcs.(0) imm) (Int64.lognot 1L))
      | Branch (op, _, _, off) ->
          if Iss.Alu.eval_branch op srcs.(0) srcs.(1) then
            set_next_pc u (Int64.add pc off)
      | Op_imm (op, _, _, imm) ->
          u.Uop.result <- Iss.Alu.eval_alu op srcs.(0) imm
      | Op_imm_w (op, _, _, imm) ->
          u.Uop.result <- Iss.Alu.eval_alu_w op srcs.(0) imm
      | Op (op, _, _, _) -> u.Uop.result <- Iss.Alu.eval_alu op srcs.(0) srcs.(1)
      | Op_w (op, _, _, _) ->
          u.Uop.result <- Iss.Alu.eval_alu_w op srcs.(0) srcs.(1)
      | Mul (op, _, _, _) -> u.Uop.result <- Iss.Alu.eval_mul op srcs.(0) srcs.(1)
      | Mul_w (op, _, _, _) ->
          u.Uop.result <- Iss.Alu.eval_mul_w op srcs.(0) srcs.(1)
      | Fp_rrr (op, _, _, _) ->
          let f =
            match op with
            | FADD -> Iss.Fpu.add
            | FSUB -> Iss.Fpu.sub
            | FMUL -> Iss.Fpu.mul
            | FDIV -> Iss.Fpu.div
          in
          u.Uop.result <- f srcs.(0) srcs.(1)
      | Fp_fused (op, _, _, _, _) ->
          u.Uop.result <- Iss.Fpu.fused op srcs.(0) srcs.(1) srcs.(2)
      | Fp_sign (op, _, _, _) ->
          u.Uop.result <- Iss.Fpu.sign_inject op srcs.(0) srcs.(1)
      | Fp_minmax (op, _, _, _) ->
          u.Uop.result <- Iss.Fpu.minmax op srcs.(0) srcs.(1)
      | Fp_cmp (op, _, _, _) -> u.Uop.result <- Iss.Fpu.cmp op srcs.(0) srcs.(1)
      | Fsqrt_d _ -> u.Uop.result <- Iss.Fpu.sqrt srcs.(0)
      | Fcvt_d_l _ -> u.Uop.result <- Iss.Fpu.cvt_d_l srcs.(0)
      | Fcvt_d_lu _ -> u.Uop.result <- Iss.Fpu.cvt_d_lu srcs.(0)
      | Fcvt_d_w _ -> u.Uop.result <- Iss.Fpu.cvt_d_w srcs.(0)
      | Fcvt_l_d _ -> u.Uop.result <- Iss.Fpu.cvt_l_d srcs.(0)
      | Fcvt_lu_d _ -> u.Uop.result <- Iss.Fpu.cvt_lu_d srcs.(0)
      | Fcvt_w_d _ -> u.Uop.result <- Iss.Fpu.cvt_w_d srcs.(0)
      | Fmv_x_d _ | Fmv_d_x _ -> u.Uop.result <- srcs.(0)
      | Fclass_d _ -> u.Uop.result <- Iss.Fpu.classify srcs.(0)
      | Load _ | Fld _ | Store _ | Fsd _ | Lr _ | Sc _ | Amo _ | Csr _
      | Ecall | Ebreak | Mret | Sret | Wfi | Fence | Fence_i | Sfence_vma _
      | Illegal _ ->
          (* memory and system uops are executed by the LSU / at
             commit, never through this path *)
          assert false));
  u.Uop.mispredicted <- u.Uop.next_pc <> u.Uop.pred_next
