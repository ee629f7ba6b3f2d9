(* The reference model (REF): a straightforward fetch/decode/execute
   RV64 interpreter in the style of Spike.

   Beyond plain interpretation it exposes the DRAV control surface that
   DiffTest uses to reconcile micro-architecture-dependent behaviour
   (paper §III-B2):

   - [force_exception]: make the next step trap (speculative-TLB
     page-fault rule);
   - [force_interrupt]: make the next step take a given interrupt
     (asynchronous-interrupt rule -- the REF in co-simulation mode
     never takes interrupts on its own);
   - [force_sc_failure]: make the next SC fail (LR/SC timeout rule);
   - [patch_load] / [patch_reg] / [set_counters]: post-step fixups for
     the multi-core Global-Memory rule and the CSR-read rules. *)

open Riscv

type mem_access = { vaddr : int64; paddr : int64; size : int; value : int64 }

type trap_info = { exc : Trap.exc; tval : int64 }

type commit = {
  pc : int64;
  insn : Insn.t;
  next_pc : int64;
  trap : trap_info option;
  interrupt : Trap.irq option;
  load : mem_access option;
  store : mem_access option;
  sc_failed : bool;
  csr_read : (int * int64) option;
  mmio : bool;
}

type forced =
  | Force_exception of Trap.exc * int64
  | Force_interrupt of Trap.irq
  | Force_sc_failure

type t = {
  st : Arch_state.t;
  plat : Platform.t;
  mutable forced : forced option;
  mutable force_sc_fail : bool;
  mutable autonomous : bool;
      (* true: free-running machine (ticks its own clock, takes its own
         interrupts).  false: REF mode driven by DiffTest. *)
  mutable instret : int64;
}

let create ?(autonomous = true) ?(dram_size = 64 * 1024 * 1024) ~hartid () =
  let plat = Platform.create ~dram_size () in
  let st = Arch_state.create ~hartid () in
  st.Arch_state.csr.Csr.time_source <-
    (fun () -> Platform.Clint.mtime plat.Platform.clint);
  { st; plat; forced = None; force_sc_fail = false; autonomous; instret = 0L }

(* Create a REF sharing an existing platform (for multi-hart REFs the
   paper's Global Memory rule instead gives each single-core REF its
   own local memory; see lib/core/global_memory.ml). *)
let create_with_platform ?(autonomous = true) ~plat ~hartid () =
  let st = Arch_state.create ~hartid () in
  st.Arch_state.csr.Csr.time_source <-
    (fun () -> Platform.Clint.mtime plat.Platform.clint);
  { st; plat; forced = None; force_sc_fail = false; autonomous; instret = 0L }

let load_program t (p : Asm.program) =
  Asm.load p t.plat.Platform.mem;
  t.st.Arch_state.pc <- p.Asm.entry

let force_exception t exc tval = t.forced <- Some (Force_exception (exc, tval))

let force_interrupt t irq = t.forced <- Some (Force_interrupt irq)

let force_sc_failure t = t.force_sc_fail <- true

let patch_reg t rd v = Arch_state.set_reg t.st rd v

let patch_mem t ~paddr ~size ~value =
  Platform.write t.plat ~addr:paddr ~size value

let set_counters t ~cycle ~instret =
  t.st.Arch_state.csr.Csr.reg_mcycle <- cycle;
  t.st.Arch_state.csr.Csr.reg_minstret <- instret

let set_mip_bit t n b = Csr.set_mip_bit t.st.Arch_state.csr n b

let exited t = Platform.exited t.plat

let exit_code t = Platform.exit_code t.plat

(* --- memory helpers -------------------------------------------------- *)

let check_aligned vaddr size exc =
  if Int64.rem vaddr (Int64.of_int size) <> 0L then
    raise (Trap.Exception (exc, vaddr))

let do_load t vaddr size =
  check_aligned vaddr size Trap.Load_misaligned;
  let paddr = Mmu.translate t.plat t.st.Arch_state.csr vaddr Mmu.Load in
  let value =
    try Platform.read t.plat ~addr:paddr ~size
    with Platform.Bus_fault _ ->
      raise (Trap.Exception (Trap.Load_access, vaddr))
  in
  { vaddr; paddr; size; value }

let do_store t vaddr size value =
  check_aligned vaddr size Trap.Store_misaligned;
  let paddr = Mmu.translate t.plat t.st.Arch_state.csr vaddr Mmu.Store in
  (try Platform.write t.plat ~addr:paddr ~size value
   with Platform.Bus_fault _ ->
     raise (Trap.Exception (Trap.Store_access, vaddr)));
  { vaddr; paddr; size; value }

(* --- step ------------------------------------------------------------ *)

type step_result = Committed of commit | Exited

let commit_plain insn pc next_pc =
  {
    pc;
    insn;
    next_pc;
    trap = None;
    interrupt = None;
    load = None;
    store = None;
    sc_failed = false;
    csr_read = None;
    mmio = false;
  }

let rec step (t : t) : step_result =
  if exited t then Exited
  else begin
    let st = t.st in
    let csr = st.Arch_state.csr in
    let pc = st.Arch_state.pc in
    (* device -> mip wiring *)
    if t.autonomous then begin
      let clint = t.plat.Platform.clint in
      Csr.set_mip_bit csr Csr.ip_mtip
        (Platform.Clint.mtip clint st.Arch_state.hartid);
      Csr.set_mip_bit csr Csr.ip_msip
        (Platform.Clint.msip clint st.Arch_state.hartid)
    end;
    (* forced events from DiffTest, then autonomous interrupts *)
    let forced = t.forced in
    t.forced <- None;
    let taken_interrupt =
      match forced with
      | Some (Force_interrupt irq) -> Some irq
      | Some (Force_exception _) | Some Force_sc_failure | None ->
          if t.autonomous then Trap.pending_interrupt csr else None
    in
    (match forced with
    | Some Force_sc_failure -> t.force_sc_fail <- true
    | Some (Force_interrupt _) | Some (Force_exception _) | None -> ());
    match taken_interrupt with
    | Some irq ->
        let next_pc = Trap.take_interrupt csr irq ~epc:pc in
        st.Arch_state.pc <- next_pc;
        Committed
          {
            (commit_plain (Insn.Op_imm (ADD, 0, 0, 0L)) pc next_pc) with
            interrupt = Some irq;
          }
    | None -> (
        match forced with
        | Some (Force_exception (exc, tval)) ->
            let next_pc = Trap.take_exception csr exc tval ~epc:pc in
            st.Arch_state.pc <- next_pc;
            Committed
              {
                (commit_plain (Insn.Op_imm (ADD, 0, 0, 0L)) pc next_pc) with
                trap = Some { exc; tval };
              }
        | Some (Force_interrupt _) | Some Force_sc_failure | None -> (
            (* fetch / decode / execute *)
            let finish commit =
              t.instret <- Int64.add t.instret 1L;
              csr.Csr.reg_minstret <- Int64.add csr.Csr.reg_minstret 1L;
              if t.autonomous then begin
                csr.Csr.reg_mcycle <- Int64.add csr.Csr.reg_mcycle 1L;
                Platform.Clint.tick t.plat.Platform.clint 1
              end;
              Committed commit
            in
            try
              let fetch_pa = Mmu.translate t.plat csr pc Mmu.Fetch in
              let word =
                try Platform.read t.plat ~addr:fetch_pa ~size:4
                with Platform.Bus_fault _ ->
                  raise (Trap.Exception (Trap.Fetch_access, pc))
              in
              let insn = Decode.decode (Int64.to_int32 word) in
              let c = exec t pc insn in
              st.Arch_state.pc <- c.next_pc;
              finish c
            with Trap.Exception (exc, tval) ->
              let next_pc = Trap.take_exception csr exc tval ~epc:pc in
              st.Arch_state.pc <- next_pc;
              let insn = Insn.Illegal 0l in
              finish
                {
                  (commit_plain insn pc next_pc) with
                  trap = Some { exc; tval };
                }))
  end

and exec (t : t) (pc : int64) (insn : Insn.t) : commit =
  let st = t.st in
  let csr = st.Arch_state.csr in
  let rg = Arch_state.get_reg st in
  let wr = Arch_state.set_reg st in
  let frg = Arch_state.get_freg st in
  let fwr = Arch_state.set_freg st in
  let next = Int64.add pc 4L in
  let plain = commit_plain insn pc in
  match insn with
  | Lui (rd, imm) ->
      wr rd imm;
      plain next
  | Auipc (rd, imm) ->
      wr rd (Int64.add pc imm);
      plain next
  | Jal (rd, off) ->
      wr rd next;
      plain (Int64.add pc off)
  | Jalr (rd, rs1, imm) ->
      let target = Int64.logand (Int64.add (rg rs1) imm) (Int64.lognot 1L) in
      wr rd next;
      plain target
  | Branch (op, rs1, rs2, off) ->
      if Alu.eval_branch op (rg rs1) (rg rs2) then plain (Int64.add pc off)
      else plain next
  | Load (op, rd, rs1, imm) ->
      let vaddr = Int64.add (rg rs1) imm in
      let acc = do_load t vaddr (Alu.load_width op) in
      wr rd (Alu.extend_load op acc.value);
      {
        (plain next) with
        load = Some acc;
        mmio = Platform.is_mmio t.plat acc.paddr;
      }
  | Store (op, rs2, rs1, imm) ->
      let vaddr = Int64.add (rg rs1) imm in
      let acc = do_store t vaddr (Alu.store_width op) (rg rs2) in
      {
        (plain next) with
        store = Some acc;
        mmio = Platform.is_mmio t.plat acc.paddr;
      }
  | Op_imm (op, rd, rs1, imm) ->
      wr rd (Alu.eval_alu op (rg rs1) imm);
      plain next
  | Op_imm_w (op, rd, rs1, imm) ->
      wr rd (Alu.eval_alu_w op (rg rs1) imm);
      plain next
  | Op (op, rd, rs1, rs2) ->
      wr rd (Alu.eval_alu op (rg rs1) (rg rs2));
      plain next
  | Op_w (op, rd, rs1, rs2) ->
      wr rd (Alu.eval_alu_w op (rg rs1) (rg rs2));
      plain next
  | Mul (op, rd, rs1, rs2) ->
      wr rd (Alu.eval_mul op (rg rs1) (rg rs2));
      plain next
  | Mul_w (op, rd, rs1, rs2) ->
      wr rd (Alu.eval_mul_w op (rg rs1) (rg rs2));
      plain next
  | Lr (w, rd, rs1) ->
      let size = match w with Width_w -> 4 | Width_d -> 8 in
      let vaddr = rg rs1 in
      check_aligned vaddr size Trap.Load_misaligned;
      let acc = do_load t vaddr size in
      let v =
        match w with Width_w -> Alu.sext32 acc.value | Width_d -> acc.value
      in
      wr rd v;
      st.Arch_state.reservation <- Some acc.paddr;
      { (plain next) with load = Some acc }
  | Sc (w, rd, rs1, rs2) ->
      let size = match w with Width_w -> 4 | Width_d -> 8 in
      let vaddr = rg rs1 in
      check_aligned vaddr size Trap.Store_misaligned;
      let paddr = Mmu.translate t.plat csr vaddr Mmu.Store in
      let reserved =
        match st.Arch_state.reservation with
        | Some r -> r = paddr
        | None -> false
      in
      st.Arch_state.reservation <- None;
      if reserved && not t.force_sc_fail then begin
        let acc = do_store t vaddr size (rg rs2) in
        wr rd 0L;
        { (plain next) with store = Some acc }
      end
      else begin
        t.force_sc_fail <- false;
        wr rd 1L;
        { (plain next) with sc_failed = true }
      end
  | Amo (op, w, rd, rs1, rs2) ->
      let size = match w with Width_w -> 4 | Width_d -> 8 in
      let vaddr = rg rs1 in
      check_aligned vaddr size Trap.Store_misaligned;
      let acc = do_load t vaddr size in
      let old_v =
        match w with Width_w -> Alu.sext32 acc.value | Width_d -> acc.value
      in
      let new_v = Alu.eval_amo op w old_v (rg rs2) in
      let stacc = do_store t vaddr size new_v in
      wr rd old_v;
      { (plain next) with load = Some acc; store = Some stacc }
  | Csr (op, rd, rs1, addr) -> (
      try
        let old_v =
          match op with
          | CSRRW | CSRRWI when rd = 0 -> 0L
          | _ -> Csr.read csr addr
        in
        let src =
          match op with
          | CSRRW | CSRRS | CSRRC -> rg rs1
          | CSRRWI | CSRRSI | CSRRCI -> Int64.of_int rs1
        in
        (match op with
        | CSRRW | CSRRWI -> Csr.write csr addr src
        | CSRRS | CSRRSI ->
            if rs1 <> 0 then Csr.write csr addr (Int64.logor old_v src)
        | CSRRC | CSRRCI ->
            if rs1 <> 0 then
              Csr.write csr addr (Int64.logand old_v (Int64.lognot src)));
        wr rd old_v;
        { (plain next) with csr_read = Some (addr, old_v) }
      with Csr.Illegal_csr _ ->
        raise (Trap.Exception (Trap.Illegal_instruction, 0L)))
  | Ecall ->
      let exc =
        match csr.Csr.priv with
        | Csr.U -> Trap.Ecall_from_u
        | Csr.S -> Trap.Ecall_from_s
        | Csr.M -> Trap.Ecall_from_m
      in
      raise (Trap.Exception (exc, 0L))
  | Ebreak -> raise (Trap.Exception (Trap.Breakpoint, pc))
  | Mret ->
      if csr.Csr.priv <> Csr.M then
        raise (Trap.Exception (Trap.Illegal_instruction, 0L));
      plain (Trap.mret csr)
  | Sret ->
      if csr.Csr.priv = Csr.U then
        raise (Trap.Exception (Trap.Illegal_instruction, 0L));
      plain (Trap.sret csr)
  | Wfi -> plain next
  | Fence | Fence_i -> plain next
  | Sfence_vma (_, _) ->
      if csr.Csr.priv = Csr.U then
        raise (Trap.Exception (Trap.Illegal_instruction, 0L));
      plain next
  | Fld (frd, rs1, imm) ->
      let vaddr = Int64.add (rg rs1) imm in
      let acc = do_load t vaddr 8 in
      fwr frd acc.value;
      { (plain next) with load = Some acc }
  | Fsd (frs2, rs1, imm) ->
      let vaddr = Int64.add (rg rs1) imm in
      let acc = do_store t vaddr 8 (frg frs2) in
      { (plain next) with store = Some acc }
  | Fp_rrr (op, frd, f1, f2) ->
      let f =
        match op with
        | FADD -> Fpu.add
        | FSUB -> Fpu.sub
        | FMUL -> Fpu.mul
        | FDIV -> Fpu.div
      in
      fwr frd (f (frg f1) (frg f2));
      plain next
  | Fp_fused (op, frd, f1, f2, f3) ->
      fwr frd (Fpu.fused op (frg f1) (frg f2) (frg f3));
      plain next
  | Fp_sign (op, frd, f1, f2) ->
      fwr frd (Fpu.sign_inject op (frg f1) (frg f2));
      plain next
  | Fp_minmax (op, frd, f1, f2) ->
      fwr frd (Fpu.minmax op (frg f1) (frg f2));
      plain next
  | Fp_cmp (op, rd, f1, f2) ->
      wr rd (Fpu.cmp op (frg f1) (frg f2));
      plain next
  | Fsqrt_d (frd, f1) ->
      fwr frd (Fpu.sqrt (frg f1));
      plain next
  | Fcvt_d_l (frd, rs1) ->
      fwr frd (Fpu.cvt_d_l (rg rs1));
      plain next
  | Fcvt_d_lu (frd, rs1) ->
      fwr frd (Fpu.cvt_d_lu (rg rs1));
      plain next
  | Fcvt_d_w (frd, rs1) ->
      fwr frd (Fpu.cvt_d_w (rg rs1));
      plain next
  | Fcvt_l_d (rd, f1) ->
      wr rd (Fpu.cvt_l_d (frg f1));
      plain next
  | Fcvt_lu_d (rd, f1) ->
      wr rd (Fpu.cvt_lu_d (frg f1));
      plain next
  | Fcvt_w_d (rd, f1) ->
      wr rd (Fpu.cvt_w_d (frg f1));
      plain next
  | Fmv_x_d (rd, f1) ->
      wr rd (frg f1);
      plain next
  | Fmv_d_x (frd, rs1) ->
      fwr frd (rg rs1);
      plain next
  | Fclass_d (rd, f1) ->
      wr rd (Fpu.classify (frg f1));
      plain next
  | Illegal _ -> raise (Trap.Exception (Trap.Illegal_instruction, 0L))

(* Run until exit or instruction budget exhaustion.  Returns the number
   of instructions retired. *)
let run ?(max_insns = 1_000_000_000) (t : t) : int =
  let rec go n =
    if n >= max_insns then n
    else
      match step t with Exited -> n | Committed _ -> go (n + 1)
  in
  go 0
