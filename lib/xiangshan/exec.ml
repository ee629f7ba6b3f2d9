(* Functional execution of non-memory uops at issue time.

   Results are computed with the same shared semantics (Iss.Alu /
   Iss.Fpu) as the reference model, so any DiffTest value mismatch
   localises a pipeline bug rather than an arithmetic divergence. *)

open Riscv [@@warning "-33"]

(* Source values, read unboxed from the physical register file. *)
let[@inline] src_value rn u r i =
  Rename.reg_value rn ~is_fp:(Uop.src_fp u r i) (Uop.psrc u r i)

let[@inline] src0 rn u r = src_value rn u r 0

let[@inline] src1 rn u r = src_value rn u r 1

let[@inline] src2 rn u r = src_value rn u r 2

let[@inline] result u r v = Uop.set64 u r Uop.w_result v

let[@inline] next_pc u r v = Uop.set64 u r Uop.w_next_pc v

(* Execute the uop in row [r], reading its renamed sources from the
   physical register file.  Sets result / next_pc / mispredicted. *)
let execute (u : Uop.t) r (rn : Rename.t) : unit =
  let pc = Uop.get64 u r Uop.w_pc in
  let fusion = Uop.get u r Uop.i_fusion in
  let seq_next = Int64.add pc (if fusion = Uop.no_fusion then 4L else 8L) in
  next_pc u r seq_next;
  if fusion = Uop.lui_addi then result u r (Uop.imm u r)
  else if fusion = Uop.zext_w then
    result u r (Int64.logand (src0 rn u r) 0xFFFFFFFFL)
  else if fusion = Uop.sh_add then
    result u r
      (Int64.add
         (Int64.shift_left (src0 rn u r) (Int64.to_int (Uop.imm u r)))
         (src1 rn u r))
  else begin
    match Uop.insn u r with
    | Lui (_, imm) -> result u r imm
    | Auipc (_, imm) -> result u r (Int64.add pc imm)
    | Jal (_, off) ->
        result u r seq_next;
        next_pc u r (Int64.add pc off)
    | Jalr (_, _, imm) ->
        result u r seq_next;
        next_pc u r
          (Int64.logand (Int64.add (src0 rn u r) imm) (Int64.lognot 1L))
    | Branch (op, _, _, off) ->
        if Iss.Alu.eval_branch op (src0 rn u r) (src1 rn u r) then
          next_pc u r (Int64.add pc off)
    | Op_imm (op, _, _, imm) ->
        result u r (Iss.Alu.eval_alu op (src0 rn u r) imm)
    | Op_imm_w (op, _, _, imm) ->
        result u r (Iss.Alu.eval_alu_w op (src0 rn u r) imm)
    | Op (op, _, _, _) ->
        result u r (Iss.Alu.eval_alu op (src0 rn u r) (src1 rn u r))
    | Op_w (op, _, _, _) ->
        result u r (Iss.Alu.eval_alu_w op (src0 rn u r) (src1 rn u r))
    | Mul (op, _, _, _) ->
        result u r (Iss.Alu.eval_mul op (src0 rn u r) (src1 rn u r))
    | Mul_w (op, _, _, _) ->
        result u r (Iss.Alu.eval_mul_w op (src0 rn u r) (src1 rn u r))
    | Fp_rrr (op, _, _, _) ->
        let f =
          match op with
          | FADD -> Iss.Fpu.add
          | FSUB -> Iss.Fpu.sub
          | FMUL -> Iss.Fpu.mul
          | FDIV -> Iss.Fpu.div
        in
        result u r (f (src0 rn u r) (src1 rn u r))
    | Fp_fused (op, _, _, _, _) ->
        result u r (Iss.Fpu.fused op (src0 rn u r) (src1 rn u r) (src2 rn u r))
    | Fp_sign (op, _, _, _) ->
        result u r (Iss.Fpu.sign_inject op (src0 rn u r) (src1 rn u r))
    | Fp_minmax (op, _, _, _) ->
        result u r (Iss.Fpu.minmax op (src0 rn u r) (src1 rn u r))
    | Fp_cmp (op, _, _, _) ->
        result u r (Iss.Fpu.cmp op (src0 rn u r) (src1 rn u r))
    | Fsqrt_d _ -> result u r (Iss.Fpu.sqrt (src0 rn u r))
    | Fcvt_d_l _ -> result u r (Iss.Fpu.cvt_d_l (src0 rn u r))
    | Fcvt_d_lu _ -> result u r (Iss.Fpu.cvt_d_lu (src0 rn u r))
    | Fcvt_d_w _ -> result u r (Iss.Fpu.cvt_d_w (src0 rn u r))
    | Fcvt_l_d _ -> result u r (Iss.Fpu.cvt_l_d (src0 rn u r))
    | Fcvt_lu_d _ -> result u r (Iss.Fpu.cvt_lu_d (src0 rn u r))
    | Fcvt_w_d _ -> result u r (Iss.Fpu.cvt_w_d (src0 rn u r))
    | Fmv_x_d _ | Fmv_d_x _ -> result u r (src0 rn u r)
    | Fclass_d _ -> result u r (Iss.Fpu.classify (src0 rn u r))
    | Load _ | Fld _ | Store _ | Fsd _ | Lr _ | Sc _ | Amo _ | Csr _
    | Ecall | Ebreak | Mret | Sret | Wfi | Fence | Fence_i | Sfence_vma _
    | Illegal _ ->
        (* memory and system uops are executed by the LSU / at
           commit, never through this path *)
        assert false
  end;
  Uop.set_flag u r Uop.b_mispredicted
    (not
       (Int64.equal
          (Uop.get64 u r Uop.w_next_pc)
          (Uop.get64 u r Uop.w_pred_next)))

(* Address generation for the load or store in row [r]: writes its
   vaddr and access size (and a store's data, masked to the access)
   and returns the vaddr, boxed once for the TLB. *)
let agen (u : Uop.t) r (rn : Rename.t) : int64 =
  let insn = Uop.insn u r in
  let size =
    match insn with
    | Load (op, _, _, _) -> Iss.Alu.load_width op
    | Store (op, _, _, _) -> Iss.Alu.store_width op
    | _ -> 8
  in
  let vaddr =
    match insn with
    | Load (_, _, _, imm) | Fld (_, _, imm) | Store (_, _, _, imm)
    | Fsd (_, _, imm) ->
        Int64.add (src0 rn u r) imm
    | _ -> src0 rn u r
  in
  Uop.set u r Uop.i_msize size;
  Uop.set64 u r Uop.w_vaddr vaddr;
  if (Uop.si u r).Predecode.exec_class = Config.STORE then begin
    let data = src1 rn u r in
    Uop.set64 u r Uop.w_sdata
      (if size >= 8 then data
       else Int64.logand data (Int64.sub (Int64.shift_left 1L (8 * size)) 1L))
  end;
  vaddr
