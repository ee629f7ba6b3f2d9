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

type mem_access = {
  mutable vaddr : int64;
  mutable paddr : int64;
  mutable size : int;
  mutable value : int64;
}

type trap_info = { exc : Trap.exc; tval : int64 }

type commit = {
  mutable pc : int64;
  mutable insn : Insn.t;
  mutable next_pc : int64;
  mutable trap : trap_info option;
  mutable interrupt : Trap.irq option;
  mutable load : mem_access option;
  mutable store : mem_access option;
  mutable sc_failed : bool;
  mutable csr_read : (int * int64) option;
  mutable mmio : bool;
}

type step_result = Committed of commit | Exited

(* The one commit record a REF reports into, with the two access
   records its [load] / [store] point at and the [Committed] value
   [step] returns: allocated once per REF and refilled by every step,
   so retiring an instruction allocates no record.  The NEMU REF
   reports through the same functions. *)
type report = {
  commit : commit;
  load_acc : mem_access;
  some_load : mem_access option; (* [Some load_acc] *)
  store_acc : mem_access;
  some_store : mem_access option; (* [Some store_acc] *)
  committed : step_result; (* [Committed commit] *)
}

let nop = Insn.Op_imm (ADD, 0, 0, 0L)

let make_report () =
  let commit =
    {
      pc = 0L;
      insn = nop;
      next_pc = 0L;
      trap = None;
      interrupt = None;
      load = None;
      store = None;
      sc_failed = false;
      csr_read = None;
      mmio = false;
    }
  in
  let acc () = { vaddr = 0L; paddr = 0L; size = 0; value = 0L } in
  let load_acc = acc () and store_acc = acc () in
  {
    commit;
    load_acc;
    some_load = Some load_acc;
    store_acc;
    some_store = Some store_acc;
    committed = Committed commit;
  }

(* Start the report of a step retiring [insn] at [pc]: every other
   field but [next_pc], which the caller sets, back to "nothing
   happened".  The record outlives the minor heap, so a pointer store
   goes through the write barrier; the options, [None] after most
   steps, are stored only when set. *)
let begin_commit r ~pc ~insn =
  let c = r.commit in
  c.pc <- pc;
  c.insn <- insn;
  if c.trap != None then c.trap <- None;
  if c.interrupt != None then c.interrupt <- None;
  if c.load != None then c.load <- None;
  if c.store != None then c.store <- None;
  c.sc_failed <- false;
  if c.csr_read != None then c.csr_read <- None;
  c.mmio <- false

let set_acc a ~vaddr ~paddr ~size ~value =
  a.vaddr <- vaddr;
  a.paddr <- paddr;
  a.size <- size;
  a.value <- value

let blank_report r =
  begin_commit r ~pc:0L ~insn:nop;
  r.commit.next_pc <- 0L;
  set_acc r.load_acc ~vaddr:0L ~paddr:0L ~size:0 ~value:0L;
  set_acc r.store_acc ~vaddr:0L ~paddr:0L ~size:0 ~value:0L

let report_load r ~vaddr ~paddr ~size ~value =
  set_acc r.load_acc ~vaddr ~paddr ~size ~value;
  r.commit.load <- r.some_load

let report_store r ~vaddr ~paddr ~size ~value =
  set_acc r.store_acc ~vaddr ~paddr ~size ~value;
  r.commit.store <- r.some_store

let copy_acc a = { a with vaddr = a.vaddr }

let copy_commit c =
  {
    c with
    load = Option.map copy_acc c.load;
    store = Option.map copy_acc c.store;
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
  mutable instret : int;
  report : report;
}

(* Create a REF sharing an existing platform (for multi-hart REFs the
   paper's Global Memory rule instead gives each single-core REF its
   own local memory; see lib/core/global_memory.ml). *)
let create_with_platform ?(autonomous = true) ~plat ~hartid () =
  let st = Arch_state.create ~hartid () in
  st.Arch_state.csr.Csr.time_source <-
    (fun () -> Platform.Clint.mtime plat.Platform.clint);
  {
    st;
    plat;
    forced = None;
    force_sc_fail = false;
    autonomous;
    instret = 0;
    report = make_report ();
  }

let create ?autonomous ?(dram_size = 64 * 1024 * 1024) ~hartid () =
  create_with_platform ?autonomous ~plat:(Platform.create ~dram_size ()) ~hartid
    ()

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
  t.st.Arch_state.csr.Csr.reg_minstret <- Int64.to_int instret

let set_mip_bit t n b = Csr.set_mip_bit t.st.Arch_state.csr n b

let exited t = Platform.exited t.plat

let exit_code t = Platform.exit_code t.plat

(* --- memory helpers -------------------------------------------------- *)

let check_aligned vaddr size exc =
  if Int64.rem vaddr (Int64.of_int size) <> 0L then
    raise (Trap.Exception (exc, vaddr))

(* Both report the access into the step's commit and return the value
   loaded; the physical address is left in the report's access record. *)
let do_load t vaddr size =
  check_aligned vaddr size Trap.Load_misaligned;
  let paddr = Mmu.translate t.plat t.st.Arch_state.csr vaddr Mmu.Load in
  let value =
    try Platform.read t.plat ~addr:paddr ~size
    with Platform.Bus_fault _ ->
      raise (Trap.Exception (Trap.Load_access, vaddr))
  in
  report_load t.report ~vaddr ~paddr ~size ~value;
  value

let do_store t vaddr size value =
  check_aligned vaddr size Trap.Store_misaligned;
  let paddr = Mmu.translate t.plat t.st.Arch_state.csr vaddr Mmu.Store in
  (try Platform.write t.plat ~addr:paddr ~size value
   with Platform.Bus_fault _ ->
     raise (Trap.Exception (Trap.Store_access, vaddr)));
  report_store t.report ~vaddr ~paddr ~size ~value

(* --- step ------------------------------------------------------------ *)

(* Register access for [exec]: top-level, so a step builds no partial
   application. *)
let rg = Arch_state.get_reg
let wr = Arch_state.set_reg
let frg = Arch_state.get_freg
let fwr = Arch_state.set_freg

(* Count a retired step. *)
let retire t csr =
  t.instret <- t.instret + 1;
  csr.Csr.reg_minstret <- csr.Csr.reg_minstret + 1;
  if t.autonomous then begin
    csr.Csr.reg_mcycle <- Int64.add csr.Csr.reg_mcycle 1L;
    Platform.Clint.tick t.plat.Platform.clint 1
  end

(* Decoded instructions, memoised per 32-bit word in a process-wide,
   direct-mapped table sized like [Xiangshan.Predecode]'s: decoding is
   a pure function of the word and an [Insn.t] is immutable, so an
   entry is never stale and a hit allocates nothing.  No REF reaches
   the table, so LightSSS images and marshalled state never carry it. *)
let memo_bits = 12

let memo_words = Array.make (1 lsl memo_bits) (-1)

let memo_insns = Array.make (1 lsl memo_bits) nop

let decode word =
  let word = word land 0xFFFF_FFFF in
  let i = ((word * 0x9E3779B1) lsr 20) land ((1 lsl memo_bits) - 1) in
  if Array.unsafe_get memo_words i = word then Array.unsafe_get memo_insns i
  else begin
    let insn = Decode.decode_int word in
    Array.unsafe_set memo_words i word;
    Array.unsafe_set memo_insns i insn;
    insn
  end

let rec step (t : t) : step_result =
  if exited t then Exited
  else begin
    let st = t.st in
    let csr = st.Arch_state.csr in
    let pc = st.Arch_state.pc in
    let r = t.report in
    let c = r.commit in
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
        begin_commit r ~pc ~insn:nop;
        c.next_pc <- next_pc;
        c.interrupt <- taken_interrupt;
        r.committed
    | None -> (
        match forced with
        | Some (Force_exception (exc, tval)) ->
            let next_pc = Trap.take_exception csr exc tval ~epc:pc in
            st.Arch_state.pc <- next_pc;
            begin_commit r ~pc ~insn:nop;
            c.next_pc <- next_pc;
            c.trap <- Some { exc; tval };
            r.committed
        | Some (Force_interrupt _) | Some Force_sc_failure | None -> (
            (* fetch / decode / execute *)
            (try
               let fetch_pa = Mmu.translate t.plat csr pc Mmu.Fetch in
               let word =
                 try Platform.read t.plat ~addr:fetch_pa ~size:4
                 with Platform.Bus_fault _ ->
                   raise (Trap.Exception (Trap.Fetch_access, pc))
               in
               let insn = decode (Int64.to_int word) in
               begin_commit r ~pc ~insn;
               let next_pc = exec t pc insn in
               c.next_pc <- next_pc;
               st.Arch_state.pc <- next_pc
             with Trap.Exception (exc, tval) ->
               let next_pc = Trap.take_exception csr exc tval ~epc:pc in
               st.Arch_state.pc <- next_pc;
               begin_commit r ~pc ~insn:(Insn.Illegal 0l);
               c.next_pc <- next_pc;
               c.trap <- Some { exc; tval });
            retire t csr;
            r.committed))
  end

(* Execute [insn], reporting its accesses, CSR read and SC outcome into
   [t.report]; returns the next pc.  Register accesses are direct calls:
   a partial application per step would be a closure per step. *)
and exec (t : t) (pc : int64) (insn : Insn.t) : int64 =
  let st = t.st in
  let csr = st.Arch_state.csr in
  let c = t.report.commit in
  let next = Int64.add pc 4L in
  match insn with
  | Lui (rd, imm) ->
      wr st rd imm;
      next
  | Auipc (rd, imm) ->
      wr st rd (Int64.add pc imm);
      next
  | Jal (rd, off) ->
      wr st rd next;
      Int64.add pc off
  | Jalr (rd, rs1, imm) ->
      let target = Int64.logand (Int64.add (rg st rs1) imm) (Int64.lognot 1L) in
      wr st rd next;
      target
  | Branch (op, rs1, rs2, off) ->
      if Alu.eval_branch op (rg st rs1) (rg st rs2) then Int64.add pc off
      else next
  | Load (op, rd, rs1, imm) ->
      let vaddr = Int64.add (rg st rs1) imm in
      let v = do_load t vaddr (Alu.load_width op) in
      wr st rd (Alu.extend_load op v);
      c.mmio <- Platform.is_mmio t.plat t.report.load_acc.paddr;
      next
  | Store (op, rs2, rs1, imm) ->
      let vaddr = Int64.add (rg st rs1) imm in
      do_store t vaddr (Alu.store_width op) (rg st rs2);
      c.mmio <- Platform.is_mmio t.plat t.report.store_acc.paddr;
      next
  | Op_imm (op, rd, rs1, imm) ->
      wr st rd (Alu.eval_alu op (rg st rs1) imm);
      next
  | Op_imm_w (op, rd, rs1, imm) ->
      wr st rd (Alu.eval_alu_w op (rg st rs1) imm);
      next
  | Op (op, rd, rs1, rs2) ->
      wr st rd (Alu.eval_alu op (rg st rs1) (rg st rs2));
      next
  | Op_w (op, rd, rs1, rs2) ->
      wr st rd (Alu.eval_alu_w op (rg st rs1) (rg st rs2));
      next
  | Mul (op, rd, rs1, rs2) ->
      wr st rd (Alu.eval_mul op (rg st rs1) (rg st rs2));
      next
  | Mul_w (op, rd, rs1, rs2) ->
      wr st rd (Alu.eval_mul_w op (rg st rs1) (rg st rs2));
      next
  | Lr (w, rd, rs1) ->
      let size = match w with Width_w -> 4 | Width_d -> 8 in
      let vaddr = rg st rs1 in
      check_aligned vaddr size Trap.Load_misaligned;
      let loaded = do_load t vaddr size in
      let v =
        match w with Width_w -> Alu.sext32 loaded | Width_d -> loaded
      in
      wr st rd v;
      st.Arch_state.reservation <- Some t.report.load_acc.paddr;
      next
  | Sc (w, rd, rs1, rs2) ->
      let size = match w with Width_w -> 4 | Width_d -> 8 in
      let vaddr = rg st rs1 in
      check_aligned vaddr size Trap.Store_misaligned;
      let paddr = Mmu.translate t.plat csr vaddr Mmu.Store in
      let reserved =
        match st.Arch_state.reservation with
        | Some r -> r = paddr
        | None -> false
      in
      st.Arch_state.reservation <- None;
      if reserved && not t.force_sc_fail then begin
        do_store t vaddr size (rg st rs2);
        wr st rd 0L;
        next
      end
      else begin
        t.force_sc_fail <- false;
        wr st rd 1L;
        c.sc_failed <- true;
        next
      end
  | Amo (op, w, rd, rs1, rs2) ->
      let size = match w with Width_w -> 4 | Width_d -> 8 in
      let vaddr = rg st rs1 in
      check_aligned vaddr size Trap.Store_misaligned;
      let loaded = do_load t vaddr size in
      let old_v =
        match w with Width_w -> Alu.sext32 loaded | Width_d -> loaded
      in
      let new_v = Alu.eval_amo op w old_v (rg st rs2) in
      do_store t vaddr size new_v;
      wr st rd old_v;
      next
  | Csr (op, rd, rs1, addr) -> (
      try
        let old_v =
          match op with
          | CSRRW | CSRRWI when rd = 0 -> 0L
          | _ -> Csr.read csr addr
        in
        let src =
          match op with
          | CSRRW | CSRRS | CSRRC -> rg st rs1
          | CSRRWI | CSRRSI | CSRRCI -> Int64.of_int rs1
        in
        (match op with
        | CSRRW | CSRRWI -> Csr.write csr addr src
        | CSRRS | CSRRSI ->
            if rs1 <> 0 then Csr.write csr addr (Int64.logor old_v src)
        | CSRRC | CSRRCI ->
            if rs1 <> 0 then
              Csr.write csr addr (Int64.logand old_v (Int64.lognot src)));
        wr st rd old_v;
        c.csr_read <- Some (addr, old_v);
        next
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
      Trap.mret csr
  | Sret ->
      if csr.Csr.priv = Csr.U then
        raise (Trap.Exception (Trap.Illegal_instruction, 0L));
      Trap.sret csr
  | Wfi -> next
  | Fence | Fence_i -> next
  | Sfence_vma (_, _) ->
      if csr.Csr.priv = Csr.U then
        raise (Trap.Exception (Trap.Illegal_instruction, 0L));
      next
  | Fld (frd, rs1, imm) ->
      let vaddr = Int64.add (rg st rs1) imm in
      fwr st frd (do_load t vaddr 8);
      next
  | Fsd (frs2, rs1, imm) ->
      let vaddr = Int64.add (rg st rs1) imm in
      do_store t vaddr 8 (frg st frs2);
      next
  | Fp_rrr (op, frd, f1, f2) ->
      let f =
        match op with
        | FADD -> Fpu.add
        | FSUB -> Fpu.sub
        | FMUL -> Fpu.mul
        | FDIV -> Fpu.div
      in
      fwr st frd (f (frg st f1) (frg st f2));
      next
  | Fp_fused (op, frd, f1, f2, f3) ->
      fwr st frd (Fpu.fused op (frg st f1) (frg st f2) (frg st f3));
      next
  | Fp_sign (op, frd, f1, f2) ->
      fwr st frd (Fpu.sign_inject op (frg st f1) (frg st f2));
      next
  | Fp_minmax (op, frd, f1, f2) ->
      fwr st frd (Fpu.minmax op (frg st f1) (frg st f2));
      next
  | Fp_cmp (op, rd, f1, f2) ->
      wr st rd (Fpu.cmp op (frg st f1) (frg st f2));
      next
  | Fsqrt_d (frd, f1) ->
      fwr st frd (Fpu.sqrt (frg st f1));
      next
  | Fcvt_d_l (frd, rs1) ->
      fwr st frd (Fpu.cvt_d_l (rg st rs1));
      next
  | Fcvt_d_lu (frd, rs1) ->
      fwr st frd (Fpu.cvt_d_lu (rg st rs1));
      next
  | Fcvt_d_w (frd, rs1) ->
      fwr st frd (Fpu.cvt_d_w (rg st rs1));
      next
  | Fcvt_l_d (rd, f1) ->
      wr st rd (Fpu.cvt_l_d (frg st f1));
      next
  | Fcvt_lu_d (rd, f1) ->
      wr st rd (Fpu.cvt_lu_d (frg st f1));
      next
  | Fcvt_w_d (rd, f1) ->
      wr st rd (Fpu.cvt_w_d (frg st f1));
      next
  | Fmv_x_d (rd, f1) ->
      wr st rd (frg st f1);
      next
  | Fmv_d_x (frd, rs1) ->
      fwr st frd (rg st rs1);
      next
  | Fclass_d (rd, f1) ->
      wr st rd (Fpu.classify (frg st f1));
      next
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
