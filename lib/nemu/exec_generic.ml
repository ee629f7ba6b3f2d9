(* Generic (non-specialised) execution of a decoded instruction on a
   Mach.t, with pluggable floating-point arithmetic.

   This is the executor used by the baseline engines:
   - dromajo_like re-decodes and calls it for every instruction;
   - spike_like caches decodes but still pays the full generic
     dispatch, and plugs in SoftFloat arithmetic (the reason Spike is
     slow on SPECfp, §III-D2);
   - qemu_tci_like only uses it for system instructions.

   NEMU instead compiles each instruction into a specialised closure
   (see fast.ml), but shares [load]/[store]/[fetch_decode] as its
   slow path.

   Memory accesses consult the host TLB in [Mach] before the full Sv39
   walk: a hit resolves a virtual access with one array read.  Only
   DRAM-backed pages are cached (MMIO always takes the slow path).
   Privilege switches retarget the TLB's per-privilege partition
   ([Mach.sync_priv]: the [Mret]/[Sret] arms below plus
   [Mach.take_trap]); remapping events flush it
   ([Mach.sync_translation]: the [Sfence_vma] and satp/status [Csr]
   arms). *)

open Riscv

type fp_ops = {
  f_add : int64 -> int64 -> int64;
  f_sub : int64 -> int64 -> int64;
  f_mul : int64 -> int64 -> int64;
  f_div : int64 -> int64 -> int64;
  f_sqrt : int64 -> int64;
  f_fused : Insn.fp_fused_op -> int64 -> int64 -> int64 -> int64;
}

let host_fp =
  {
    f_add = Iss.Fpu.add;
    f_sub = Iss.Fpu.sub;
    f_mul = Iss.Fpu.mul;
    f_div = Iss.Fpu.div;
    f_sqrt = Iss.Fpu.sqrt;
    f_fused = Iss.Fpu.fused;
  }

let soft_fused op a b c =
  let neg v = Int64.logxor v Int64.min_int in
  match op with
  | Insn.FMADD -> Iss.Softfloat.add (Iss.Softfloat.mul a b) c
  | FMSUB -> Iss.Softfloat.sub (Iss.Softfloat.mul a b) c
  | FNMSUB -> Iss.Softfloat.add (neg (Iss.Softfloat.mul a b)) c
  | FNMADD -> Iss.Softfloat.sub (neg (Iss.Softfloat.mul a b)) c

let soft_fp =
  {
    f_add = Iss.Softfloat.add;
    f_sub = Iss.Softfloat.sub;
    f_mul = Iss.Softfloat.mul;
    f_div = Iss.Softfloat.div;
    f_sqrt = Iss.Softfloat.sqrt;
    f_fused = soft_fused;
  }

(* Widths are powers of two, so the remainder test is a mask test. *)
let[@inline] check_aligned vaddr size exc =
  if Int64.logand vaddr (Int64.of_int (size - 1)) <> 0L then
    raise (Trap.Exception (exc, vaddr))

let load (m : Mach.t) vaddr size =
  check_aligned vaddr size Trap.Load_misaligned;
  let mem = m.Mach.plat.Platform.mem in
  if not m.Mach.paging then begin
    if Memory.in_range mem vaddr then Memory.read_bytes_le mem vaddr size
    else
      match Platform.read m.plat ~addr:vaddr ~size with
      | v -> v
      | exception Platform.Bus_fault _ ->
          raise (Trap.Exception (Trap.Load_access, vaddr))
  end
  else begin
    let pa = Mach.tlb_lookup m Mach.tlb_load vaddr in
    if pa <> Int64.min_int then Memory.read_bytes_le mem pa size
    else begin
      let pa = Iss.Mmu.translate m.plat m.csr vaddr Iss.Mmu.Load in
      if Memory.in_range mem pa then begin
        Mach.tlb_fill m Mach.tlb_load vaddr pa;
        Memory.read_bytes_le mem pa size
      end
      else
        match Platform.read m.plat ~addr:pa ~size with
        | v -> v
        | exception Platform.Bus_fault _ ->
            raise (Trap.Exception (Trap.Load_access, vaddr))
    end
  end

let store (m : Mach.t) vaddr size v =
  check_aligned vaddr size Trap.Store_misaligned;
  let mem = m.Mach.plat.Platform.mem in
  if not m.Mach.paging then begin
    if Memory.in_range mem vaddr then Memory.write_bytes_le mem vaddr size v
    else begin
      (try Platform.write m.plat ~addr:vaddr ~size v
       with Platform.Bus_fault _ ->
         raise (Trap.Exception (Trap.Store_access, vaddr)));
      Mach.check_running m
    end
  end
  else begin
    let pa = Mach.tlb_lookup m Mach.tlb_store vaddr in
    if pa <> Int64.min_int then Memory.write_bytes_le mem pa size v
    else begin
      let pa = Iss.Mmu.translate m.plat m.csr vaddr Iss.Mmu.Store in
      if Memory.in_range mem pa then begin
        Mach.tlb_fill m Mach.tlb_store vaddr pa;
        Memory.write_bytes_le mem pa size v
      end
      else begin
        (try Platform.write m.plat ~addr:pa ~size v
         with Platform.Bus_fault _ ->
           raise (Trap.Exception (Trap.Store_access, vaddr)));
        Mach.check_running m
      end
    end
  end

(* Execute one decoded instruction at [pc]; updates m.pc.
   Raises Trap.Exception for traps (callers enter the trap). *)
let exec (fp : fp_ops) (m : Mach.t) (pc : int64) (insn : Insn.t) : unit =
  let rg = Mach.get_reg m in
  let wr = Mach.set_reg m in
  let frg i = Bigarray.Array1.get m.Mach.fregs i in
  let fwr i v = Bigarray.Array1.set m.Mach.fregs i v in
  let next = Int64.add pc 4L in
  match insn with
  | Lui (rd, imm) ->
      wr rd imm;
      m.pc <- next
  | Auipc (rd, imm) ->
      wr rd (Int64.add pc imm);
      m.pc <- next
  | Jal (rd, off) ->
      wr rd next;
      m.pc <- Int64.add pc off
  | Jalr (rd, rs1, imm) ->
      let target = Int64.logand (Int64.add (rg rs1) imm) (Int64.lognot 1L) in
      wr rd next;
      m.pc <- target
  | Branch (op, rs1, rs2, off) ->
      m.pc <-
        (if Iss.Alu.eval_branch op (rg rs1) (rg rs2) then Int64.add pc off
         else next)
  | Load (op, rd, rs1, imm) ->
      let v = load m (Int64.add (rg rs1) imm) (Iss.Alu.load_width op) in
      wr rd (Iss.Alu.extend_load op v);
      m.pc <- next
  | Store (op, rs2, rs1, imm) ->
      store m (Int64.add (rg rs1) imm) (Iss.Alu.store_width op) (rg rs2);
      m.pc <- next
  | Op_imm (op, rd, rs1, imm) ->
      wr rd (Iss.Alu.eval_alu op (rg rs1) imm);
      m.pc <- next
  | Op_imm_w (op, rd, rs1, imm) ->
      wr rd (Iss.Alu.eval_alu_w op (rg rs1) imm);
      m.pc <- next
  | Op (op, rd, rs1, rs2) ->
      wr rd (Iss.Alu.eval_alu op (rg rs1) (rg rs2));
      m.pc <- next
  | Op_w (op, rd, rs1, rs2) ->
      wr rd (Iss.Alu.eval_alu_w op (rg rs1) (rg rs2));
      m.pc <- next
  | Mul (op, rd, rs1, rs2) ->
      wr rd (Iss.Alu.eval_mul op (rg rs1) (rg rs2));
      m.pc <- next
  | Mul_w (op, rd, rs1, rs2) ->
      wr rd (Iss.Alu.eval_mul_w op (rg rs1) (rg rs2));
      m.pc <- next
  | Lr (w, rd, rs1) ->
      let size = match w with Width_w -> 4 | Width_d -> 8 in
      let vaddr = rg rs1 in
      let v = load m vaddr size in
      wr rd (match w with Width_w -> Iss.Alu.sext32 v | Width_d -> v);
      m.reservation <- Some (Mach.translate m vaddr Iss.Mmu.Load);
      m.pc <- next
  | Sc (w, rd, rs1, rs2) ->
      let size = match w with Width_w -> 4 | Width_d -> 8 in
      let vaddr = rg rs1 in
      check_aligned vaddr size Trap.Store_misaligned;
      let pa = Mach.translate m vaddr Iss.Mmu.Store in
      let ok = match m.reservation with Some r -> r = pa | None -> false in
      m.reservation <- None;
      if ok then begin
        store m vaddr size (rg rs2);
        wr rd 0L
      end
      else wr rd 1L;
      m.pc <- next
  | Amo (op, w, rd, rs1, rs2) ->
      let size = match w with Width_w -> 4 | Width_d -> 8 in
      let vaddr = rg rs1 in
      check_aligned vaddr size Trap.Store_misaligned;
      let raw = load m vaddr size in
      (* [eval_amo] sign-extends a word itself, so the old value is
         never boxed *)
      store m vaddr size (Iss.Alu.eval_amo op w raw (rg rs2));
      wr rd (match w with Width_w -> Iss.Alu.sext32 raw | Width_d -> raw);
      m.pc <- next
  | Csr (op, rd, rs1, addr) -> (
      try
        let old_v =
          match op with
          | CSRRW | CSRRWI when rd = 0 -> 0L
          | _ -> Csr.read m.csr addr
        in
        let src =
          match op with
          | CSRRW | CSRRS | CSRRC -> rg rs1
          | CSRRWI | CSRRSI | CSRRCI -> Int64.of_int rs1
        in
        (match op with
        | CSRRW | CSRRWI -> Csr.write m.csr addr src
        | CSRRS | CSRRSI ->
            if rs1 <> 0 then Csr.write m.csr addr (Int64.logor old_v src)
        | CSRRC | CSRRCI ->
            if rs1 <> 0 then
              Csr.write m.csr addr (Int64.logand old_v (Int64.lognot src)));
        wr rd old_v;
        if addr = Csr.satp || addr = Csr.mstatus || addr = Csr.sstatus then
          Mach.sync_translation m;
        m.pc <- next
      with Csr.Illegal_csr _ ->
        raise (Trap.Exception (Trap.Illegal_instruction, 0L)))
  | Ecall ->
      let exc =
        match m.csr.Csr.priv with
        | Csr.U -> Trap.Ecall_from_u
        | Csr.S -> Trap.Ecall_from_s
        | Csr.M -> Trap.Ecall_from_m
      in
      raise (Trap.Exception (exc, 0L))
  | Ebreak -> raise (Trap.Exception (Trap.Breakpoint, pc))
  | Mret ->
      if m.csr.Csr.priv <> Csr.M then
        raise (Trap.Exception (Trap.Illegal_instruction, 0L));
      m.pc <- Trap.mret m.csr;
      Mach.sync_priv m
  | Sret ->
      if m.csr.Csr.priv = Csr.U then
        raise (Trap.Exception (Trap.Illegal_instruction, 0L));
      m.pc <- Trap.sret m.csr;
      Mach.sync_priv m
  | Wfi | Fence | Fence_i -> m.pc <- next
  | Sfence_vma (_, _) ->
      Mach.sync_translation m;
      m.pc <- next
  | Fld (frd, rs1, imm) ->
      fwr frd (load m (Int64.add (rg rs1) imm) 8);
      m.pc <- next
  | Fsd (frs2, rs1, imm) ->
      store m (Int64.add (rg rs1) imm) 8 (frg frs2);
      m.pc <- next
  | Fp_rrr (op, frd, f1, f2) ->
      let f =
        match op with
        | FADD -> fp.f_add
        | FSUB -> fp.f_sub
        | FMUL -> fp.f_mul
        | FDIV -> fp.f_div
      in
      fwr frd (f (frg f1) (frg f2));
      m.pc <- next
  | Fp_fused (op, frd, f1, f2, f3) ->
      fwr frd (fp.f_fused op (frg f1) (frg f2) (frg f3));
      m.pc <- next
  | Fp_sign (op, frd, f1, f2) ->
      fwr frd (Iss.Fpu.sign_inject op (frg f1) (frg f2));
      m.pc <- next
  | Fp_minmax (op, frd, f1, f2) ->
      fwr frd (Iss.Fpu.minmax op (frg f1) (frg f2));
      m.pc <- next
  | Fp_cmp (op, rd, f1, f2) ->
      wr rd (Iss.Fpu.cmp op (frg f1) (frg f2));
      m.pc <- next
  | Fsqrt_d (frd, f1) ->
      fwr frd (fp.f_sqrt (frg f1));
      m.pc <- next
  | Fcvt_d_l (frd, rs1) ->
      fwr frd (Iss.Fpu.cvt_d_l (rg rs1));
      m.pc <- next
  | Fcvt_d_lu (frd, rs1) ->
      fwr frd (Iss.Fpu.cvt_d_lu (rg rs1));
      m.pc <- next
  | Fcvt_d_w (frd, rs1) ->
      fwr frd (Iss.Fpu.cvt_d_w (rg rs1));
      m.pc <- next
  | Fcvt_l_d (rd, f1) ->
      wr rd (Iss.Fpu.cvt_l_d (frg f1));
      m.pc <- next
  | Fcvt_lu_d (rd, f1) ->
      wr rd (Iss.Fpu.cvt_lu_d (frg f1));
      m.pc <- next
  | Fcvt_w_d (rd, f1) ->
      wr rd (Iss.Fpu.cvt_w_d (frg f1));
      m.pc <- next
  | Fmv_x_d (rd, f1) ->
      wr rd (frg f1);
      m.pc <- next
  | Fmv_d_x (frd, rs1) ->
      fwr frd (rg rs1);
      m.pc <- next
  | Fclass_d (rd, f1) ->
      wr rd (Iss.Fpu.classify (frg f1));
      m.pc <- next
  | Illegal _ -> raise (Trap.Exception (Trap.Illegal_instruction, 0L))

(* Fetch and decode the instruction at [?at] (default m.pc). *)
let fetch_decode ?at (m : Mach.t) : Insn.t =
  let va = match at with Some pc -> pc | None -> m.Mach.pc in
  let mem = m.Mach.plat.Platform.mem in
  if not m.Mach.paging then begin
    if Memory.in_range mem va then
      Decode.decode_int (Memory.read_u32 mem va)
    else raise (Trap.Exception (Trap.Fetch_access, va))
  end
  else begin
    let pa = Mach.tlb_lookup m Mach.tlb_fetch va in
    if pa <> Int64.min_int then Decode.decode_int (Memory.read_u32 mem pa)
    else begin
      let pa = Iss.Mmu.translate m.plat m.csr va Iss.Mmu.Fetch in
      if Memory.in_range mem pa then begin
        Mach.tlb_fill m Mach.tlb_fetch va pa;
        Decode.decode_int (Memory.read_u32 mem pa)
      end
      else raise (Trap.Exception (Trap.Fetch_access, va))
    end
  end

(* One full step with trap handling. *)
let step (fp : fp_ops) (m : Mach.t) : unit =
  let pc = m.pc in
  (try
     let insn = fetch_decode m in
     exec fp m pc insn
   with Trap.Exception (exc, tval) -> Mach.take_trap m exc tval ~epc:pc);
  m.instret <- m.instret + 1
