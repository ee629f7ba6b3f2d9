(* Non-autonomous REF mode for the NEMU engine (paper §III-B, §III-D).

   DiffTest drives a reference model one commit at a time, so the
   fused superblock closures of [Fast] -- which retire a whole block
   per call and observe no commit boundaries -- cannot be used
   directly: a diff-rule may patch a register or a memory word
   *between* two commits, and the patch must be visible to the very
   next instruction.  This engine keeps NEMU's superblock shape but
   compiles blocks of *decoded* instructions instead of fused
   closures: a cursor walks the block one instruction per [step],
   each step emitting the commit record (pc, next pc, memory
   accesses, CSR reads, traps) that DiffTest checks.

   The speed over the straightforward [Iss.Interp] REF comes from the
   same sources as the autonomous engine: fetch translation and
   decode are paid once per block instead of once per step (the block
   cache is keyed by virtual pc, partitioned by privilege), data
   accesses go through the host TLB, and the register files are the
   unboxed [Mach] Bigarrays.

   Patching is uop-cache-safe: every block records the physical code
   pages it was fetched from, and [patch_mem] -- the Global-Memory
   rule's write path -- invalidates any block compiled from a written
   page (plus the active cursor) before touching memory.  fence.i,
   sfence.vma and satp writes flush the whole block cache, exactly
   like the autonomous engine's uop-cache flushes. *)

open Riscv

type forced = Force_exception of Trap.exc * int64 | Force_interrupt of Trap.irq

(* Per-instruction execution strategy, decided once at block-compile
   time.  [O_straight] and [O_jump] are specialised closures in the
   [Fast.compile_straight] style -- they read registers at call time,
   so diff-rule patches between commits stay visible -- while
   [O_slow] is the instrumented path (memory, CSRs, system). *)
type op =
  | O_straight of (unit -> unit) (* pure register op; next pc = pc+4 *)
  | O_jump of (int64 -> int64) (* control flow; returns the next pc *)
  | O_slow

type block = {
  b_pc : int64; (* virtual start pc *)
  b_insns : Insn.t array;
  b_ops : op array;
  b_pages : int64 array; (* physical 4 KiB code pages fetched from *)
  b_pcs : int64 array;
      (* b_pc + 4*i for i = 0 .. length b_insns: the pcs a straight-line
         step reports, boxed once per block instead of once per step *)
}

let no_block =
  {
    b_pc = Int64.min_int;
    b_insns = [||];
    b_ops = [||];
    b_pages = [||];
    b_pcs = [||];
  }

type t = {
  m : Mach.t;
  caches : block array array;
      (* U / S / M partitions, direct-mapped; [||] until first used *)
  mutable page_index : (int64, (int * int) list) Hashtbl.t;
      (* physical code page -> cache slots (partition, slot) compiled
         from it *)
  mutable cur : block;
  mutable cur_ix : int;
  mutable cur_pc : int64; (* = b_pc + 4*cur_ix, min_int when invalid *)
  mutable forced : forced option;
  mutable force_sc_fail : bool;
  mutable instret : int;
  report : Iss.Interp.report; (* the commit every step reports into *)
  (* stats *)
  mutable compiled : int;
  mutable flushes : int;
  mutable invalidations : int;
  mutable slow_lookups : int;
}

let max_block_len = 32

(* Direct-mapped block cache, like a uop cache: lookup is one array
   read and one pc compare, conflicting pcs simply overwrite.  The
   page index can only grow (overwritten slots leave their entries
   behind), so it carries a flush backstop. *)
let cache_bits = 14
let cache_slots = 1 lsl cache_bits
let cache_mask = cache_slots - 1
let slot_of vpc = (Int64.to_int vpc lsr 2) land cache_mask
let page_index_cap = 16384

let priv_ix (csr : Csr.t) =
  match csr.Csr.priv with Csr.U -> 0 | Csr.S -> 1 | Csr.M -> 2

let create ?dram_size ?(hartid = 0) () =
  {
    m = Mach.create ?dram_size ~hartid ();
    caches = Array.make 3 [||];
    page_index = Hashtbl.create 256;
    cur = no_block;
    cur_ix = 0;
    cur_pc = Int64.min_int;
    forced = None;
    force_sc_fail = false;
    instret = 0;
    report = Iss.Interp.make_report ();
    compiled = 0;
    flushes = 0;
    invalidations = 0;
    slow_lookups = 0;
  }

let load_program t prog = Mach.load_program t.m prog

let exited t = Mach.exited t.m

let exit_code t = Mach.exit_code t.m

(* --- DRAV control surface -------------------------------------------- *)

let force_exception t exc tval = t.forced <- Some (Force_exception (exc, tval))

let force_interrupt t irq = t.forced <- Some (Force_interrupt irq)

let force_sc_failure t = t.force_sc_fail <- true

let patch_reg t rd v = Mach.set_reg t.m rd v

let patch_freg t frd v = Bigarray.Array1.set t.m.Mach.fregs frd v

let get_reg t r = Mach.get_reg t.m r

let set_counters t ~cycle ~instret =
  t.m.Mach.csr.Csr.reg_mcycle <- cycle;
  t.m.Mach.csr.Csr.reg_minstret <- Int64.to_int instret

let set_mcycle t v = t.m.Mach.csr.Csr.reg_mcycle <- v

let set_mip_bit t n b = Csr.set_mip_bit t.m.Mach.csr n b

let memories t = [ t.m.Mach.plat.Platform.mem ]

(* --- block-cache maintenance ------------------------------------------ *)

let flush_blocks t =
  Array.iter (fun c -> Array.fill c 0 (Array.length c) no_block) t.caches;
  Hashtbl.reset t.page_index;
  t.cur <- no_block;
  t.cur_ix <- 0;
  t.cur_pc <- Int64.min_int;
  t.flushes <- t.flushes + 1

let page_of pa = Int64.logand pa (Int64.lognot 0xFFFL)

let index_block t ix slot (b : block) =
  Array.iter
    (fun page ->
      let prev = Option.value (Hashtbl.find_opt t.page_index page) ~default:[] in
      Hashtbl.replace t.page_index page ((ix, slot) :: prev))
    b.b_pages

(* A DiffTest patch (or any external write) landed on [paddr]: drop
   every block compiled from the written page so the next step
   recompiles against the patched bytes. *)
let invalidate_paddr t ~paddr ~size =
  let invalidate_page page =
    (match Hashtbl.find_opt t.page_index page with
    | Some entries ->
        List.iter
          (fun (ix, slot) ->
            (* the slot may have been overwritten by an unrelated
               block since it was indexed; dropping that one too only
               costs a recompile *)
            t.caches.(ix).(slot) <- no_block;
            t.invalidations <- t.invalidations + 1)
          entries;
        Hashtbl.remove t.page_index page
    | None -> ());
    if Array.exists (Int64.equal page) t.cur.b_pages then begin
      t.cur <- no_block;
      t.cur_ix <- 0;
      t.cur_pc <- Int64.min_int
    end
  in
  let first = page_of paddr
  and last = page_of (Int64.add paddr (Int64.of_int (max 0 (size - 1)))) in
  invalidate_page first;
  if not (Int64.equal first last) then invalidate_page last

let patch_mem t ~paddr ~size ~value =
  invalidate_paddr t ~paddr ~size;
  Platform.write t.m.Mach.plat ~addr:paddr ~size value

(* --- fetch + compile --------------------------------------------------- *)

(* Fetch translation through the host TLB; mirrors the ISS fetch
   (Platform.read fallback for the pathological non-DRAM fetch). *)
let fetch_word (m : Mach.t) va : int * int64 =
  let mem = m.Mach.plat.Platform.mem in
  let read pa =
    if Memory.in_range mem pa then Memory.read_u32 mem pa
    else
      match Platform.read m.Mach.plat ~addr:pa ~size:4 with
      | v -> Int64.to_int v land 0xFFFFFFFF
      | exception Platform.Bus_fault _ ->
          raise (Trap.Exception (Trap.Fetch_access, va))
  in
  if not m.Mach.paging then (read va, va)
  else begin
    let pa = Mach.tlb_lookup m Mach.tlb_fetch va in
    if pa <> Int64.min_int then (read pa, pa)
    else begin
      let pa = Iss.Mmu.translate m.Mach.plat m.Mach.csr va Iss.Mmu.Fetch in
      if Memory.in_range mem pa then Mach.tlb_fill m Mach.tlb_fetch va pa;
      (read pa, pa)
    end
  end

(* Only instructions that change the translation / privilege context
   (or trap unconditionally) end a block.  Branches and jumps do NOT:
   the cursor keeps walking the block across a not-taken branch and
   simply drops on any other next pc, so branchy loops stay on the
   fast path.  Bytes decoded past an unconditional jump are dead
   unless execution actually falls onto them. *)
let terminal (i : Insn.t) =
  match i with
  | Insn.Ecall | Insn.Ebreak | Insn.Mret | Insn.Sret | Insn.Sfence_vma _
  | Insn.Fence_i | Insn.Csr _ | Insn.Illegal _ ->
      true
  | _ -> false

(* Specialise one decoded instruction.  Memory, CSR and system
   instructions stay on the instrumented [exec_commit] path (their
   commits carry access records); everything else gets a closure that
   skips the double dispatch.  Jump/branch closures replicate
   [Exec_generic.exec] -- link register written after the target read,
   bit 0 cleared on jalr, [Iss.Alu.eval_branch] comparison
   semantics. *)
let specialise (m : Mach.t) vpc (insn : Insn.t) : op =
  let regs = m.Mach.regs in
  let g r = Bigarray.Array1.unsafe_get regs r in
  let rdx rd = if rd = 0 then Mach.sink else rd in
  match insn with
  | Insn.Load _ | Insn.Store _ | Insn.Lr _ | Insn.Sc _ | Insn.Amo _
  | Insn.Fld _ | Insn.Fsd _ | Insn.Csr _ | Insn.Sfence_vma _ | Insn.Fence_i
  | Insn.Ecall | Insn.Ebreak | Insn.Mret | Insn.Sret | Insn.Illegal _ ->
      O_slow
  | Insn.Jal (rd, off) ->
      let rd = rdx rd in
      O_jump
        (fun pc ->
          Bigarray.Array1.unsafe_set regs rd (Int64.add pc 4L);
          Int64.add pc off)
  | Insn.Jalr (rd, rs1, imm) ->
      let rd = rdx rd in
      O_jump
        (fun pc ->
          let target =
            Int64.logand (Int64.add (g rs1) imm) (Int64.lognot 1L)
          in
          Bigarray.Array1.unsafe_set regs rd (Int64.add pc 4L);
          target)
  | Insn.Branch (op, rs1, rs2, off) ->
      O_jump
        (match op with
        | Insn.BEQ ->
            fun pc ->
              if Int64.equal (g rs1) (g rs2) then Int64.add pc off
              else Int64.add pc 4L
        | Insn.BNE ->
            fun pc ->
              if Int64.equal (g rs1) (g rs2) then Int64.add pc 4L
              else Int64.add pc off
        | Insn.BLT ->
            fun pc ->
              if g rs1 < g rs2 then Int64.add pc off else Int64.add pc 4L
        | Insn.BGE ->
            fun pc ->
              if g rs1 >= g rs2 then Int64.add pc off else Int64.add pc 4L
        | Insn.BLTU ->
            (* unsigned a < b: signed (a < b) xor (sign a) xor (sign b) *)
            fun pc ->
              let a = g rs1 and b = g rs2 in
              if a < b <> (a < 0L <> (b < 0L)) then Int64.add pc off
              else Int64.add pc 4L
        | Insn.BGEU ->
            fun pc ->
              let a = g rs1 and b = g rs2 in
              if a < b <> (a < 0L <> (b < 0L)) then Int64.add pc 4L
              else Int64.add pc off)
  | Insn.Auipc (rd, imm) ->
      (* pc-relative with the pc known at compile time *)
      let rd = rdx rd in
      let v = Int64.add vpc imm in
      O_straight (fun () -> Bigarray.Array1.unsafe_set regs rd v)
  | _ -> (
      match Fast.compile_straight m insn with
      | Some f -> O_straight f
      | None -> O_slow)

(* Compile a straight-line block starting at [vpc].  The first fetch
   may trap (propagated to the caller, which performs trap entry);
   later fetch faults simply end the block so the fault is taken when
   execution actually reaches that pc. *)
let compile t vpc : block =
  let m = t.m in
  let word0, pa0 = fetch_word m vpc in
  let insns = ref [ Decode.decode_int word0 ] in
  let pages = ref [ page_of pa0 ] in
  let note_page pa =
    let p = page_of pa in
    if not (List.exists (Int64.equal p) !pages) then pages := p :: !pages
  in
  let n = ref 1 in
  (try
     while !n < max_block_len && not (terminal (List.hd !insns)) do
       let va = Int64.add vpc (Int64.of_int (4 * !n)) in
       let word, pa = fetch_word m va in
       note_page pa;
       insns := Decode.decode_int word :: !insns;
       incr n
     done
   with Trap.Exception _ -> ());
  let b_insns = Array.of_list (List.rev !insns) in
  let b_pcs =
    Array.init (Array.length b_insns + 1) (fun i ->
        Int64.add vpc (Int64.of_int (4 * i)))
  in
  let b_ops = Array.mapi (fun i insn -> specialise m b_pcs.(i) insn) b_insns in
  let b =
    { b_pc = vpc; b_insns; b_ops; b_pages = Array.of_list !pages; b_pcs }
  in
  t.compiled <- t.compiled + 1;
  b

let lookup_or_compile t vpc : block =
  let ix = priv_ix t.m.Mach.csr in
  let cache = t.caches.(ix) in
  let slot = slot_of vpc in
  if
    Array.length cache > 0
    && Int64.equal (Array.unsafe_get cache slot).b_pc vpc
  then Array.unsafe_get cache slot
  else begin
    t.slow_lookups <- t.slow_lookups + 1;
    if Hashtbl.length t.page_index >= page_index_cap then flush_blocks t;
    let b = compile t vpc in
    if Array.length t.caches.(ix) = 0 then
      t.caches.(ix) <- Array.make cache_slots no_block;
    t.caches.(ix).(slot) <- b;
    index_block t ix slot b;
    b
  end

(* --- instrumented execution ------------------------------------------- *)

let[@inline] check_aligned vaddr size exc =
  if Int64.logand vaddr (Int64.of_int (size - 1)) <> 0L then
    raise (Trap.Exception (exc, vaddr))

(* The physical address of [vaddr] through the host TLB [tlb]; a miss
   walks the page table and caches the translation when it lands in
   DRAM. *)
let translate (m : Mach.t) tlb access vaddr =
  if not m.Mach.paging then vaddr
  else begin
    let pa = Mach.tlb_lookup m tlb vaddr in
    if pa <> Int64.min_int then pa
    else begin
      let pa = Iss.Mmu.translate m.Mach.plat m.Mach.csr vaddr access in
      if Memory.in_range m.Mach.plat.Platform.mem pa then
        Mach.tlb_fill m tlb vaddr pa;
      pa
    end
  end

let translate_store (m : Mach.t) vaddr =
  translate m Mach.tlb_store Iss.Mmu.Store vaddr

(* Loads and stores mirror [Exec_generic.load]/[store] and report the
   full access (vaddr, paddr, size, value) into the step's commit; a
   load returns the value read. *)
let ref_load (t : t) vaddr size : int64 =
  check_aligned vaddr size Trap.Load_misaligned;
  let m = t.m in
  let mem = m.Mach.plat.Platform.mem in
  let pa = translate m Mach.tlb_load Iss.Mmu.Load vaddr in
  let value =
    if Memory.in_range mem pa then Memory.read_bytes_le mem pa size
    else
      match Platform.read m.Mach.plat ~addr:pa ~size with
      | v -> v
      | exception Platform.Bus_fault _ ->
          raise (Trap.Exception (Trap.Load_access, vaddr))
  in
  Iss.Interp.report_load t.report ~vaddr ~paddr:pa ~size ~value;
  value

let ref_store (t : t) vaddr size v =
  check_aligned vaddr size Trap.Store_misaligned;
  let m = t.m in
  let mem = m.Mach.plat.Platform.mem in
  let pa = translate_store m vaddr in
  if Memory.in_range mem pa then begin
    (* a guest store into a compiled code page must drop the block
       (made visible at the next fence.i, but dropping now is always
       safe and keeps the cache byte-accurate) *)
    (if Hashtbl.length t.page_index > 0 then
       match Hashtbl.find_opt t.page_index (page_of pa) with
       | Some _ -> invalidate_paddr t ~paddr:pa ~size
       | None -> ());
    Memory.write_bytes_le mem pa size v
  end
  else begin
    (try Platform.write m.Mach.plat ~addr:pa ~size v
     with Platform.Bus_fault _ ->
       raise (Trap.Exception (Trap.Store_access, vaddr)));
    Mach.check_running m
  end;
  Iss.Interp.report_store t.report ~vaddr ~paddr:pa ~size ~value:v

(* Execute one decoded instruction, reporting its accesses, CSR read
   and SC outcome into [t.report] and leaving the next pc in [m.pc]
   ([next], the fall-through pc, for the instrumented arms).  The
   memory / CSR / atomic arms are instrumented here; everything else
   delegates to the generic executor (host-FP arithmetic, identical
   semantics to the ISS REF).  Raises [Trap.Exception] like the ISS
   exec; callers perform trap entry. *)
let exec_commit (t : t) pc ~next (insn : Insn.t) =
  let m = t.m in
  let c = t.report.Iss.Interp.commit in
  match insn with
  | Insn.Load (op, rd, rs1, imm) ->
      let v =
        ref_load t (Int64.add (Mach.get_reg m rs1) imm) (Iss.Alu.load_width op)
      in
      Mach.set_reg m rd (Iss.Alu.extend_load op v);
      m.Mach.pc <- next;
      c.Iss.Interp.mmio <-
        Platform.is_mmio m.Mach.plat
          t.report.Iss.Interp.load_acc.Iss.Interp.paddr
  | Insn.Store (op, rs2, rs1, imm) ->
      ref_store t
        (Int64.add (Mach.get_reg m rs1) imm)
        (Iss.Alu.store_width op) (Mach.get_reg m rs2);
      m.Mach.pc <- next;
      c.Iss.Interp.mmio <-
        Platform.is_mmio m.Mach.plat
          t.report.Iss.Interp.store_acc.Iss.Interp.paddr
  | Insn.Lr (w, rd, rs1) ->
      let size = match w with Insn.Width_w -> 4 | Insn.Width_d -> 8 in
      let v = ref_load t (Mach.get_reg m rs1) size in
      Mach.set_reg m rd
        (match w with Insn.Width_w -> Iss.Alu.sext32 v | Insn.Width_d -> v);
      m.Mach.reservation <-
        Some t.report.Iss.Interp.load_acc.Iss.Interp.paddr;
      m.Mach.pc <- next
  | Insn.Sc (w, rd, rs1, rs2) ->
      let size = match w with Insn.Width_w -> 4 | Insn.Width_d -> 8 in
      let vaddr = Mach.get_reg m rs1 in
      check_aligned vaddr size Trap.Store_misaligned;
      let pa = translate_store m vaddr in
      let reserved =
        match m.Mach.reservation with Some r -> Int64.equal r pa | None -> false
      in
      m.Mach.reservation <- None;
      if reserved && not t.force_sc_fail then begin
        ref_store t vaddr size (Mach.get_reg m rs2);
        Mach.set_reg m rd 0L
      end
      else begin
        t.force_sc_fail <- false;
        Mach.set_reg m rd 1L;
        c.Iss.Interp.sc_failed <- true
      end;
      m.Mach.pc <- next
  | Insn.Amo (op, w, rd, rs1, rs2) ->
      let size = match w with Insn.Width_w -> 4 | Insn.Width_d -> 8 in
      let vaddr = Mach.get_reg m rs1 in
      check_aligned vaddr size Trap.Store_misaligned;
      let v = ref_load t vaddr size in
      let old_v =
        match w with Insn.Width_w -> Iss.Alu.sext32 v | Insn.Width_d -> v
      in
      ref_store t vaddr size
        (Iss.Alu.eval_amo op w old_v (Mach.get_reg m rs2));
      Mach.set_reg m rd old_v;
      m.Mach.pc <- next
  | Insn.Fld (frd, rs1, imm) ->
      Bigarray.Array1.set m.Mach.fregs frd
        (ref_load t (Int64.add (Mach.get_reg m rs1) imm) 8);
      m.Mach.pc <- next
  | Insn.Fsd (frs2, rs1, imm) ->
      ref_store t
        (Int64.add (Mach.get_reg m rs1) imm)
        8
        (Bigarray.Array1.get m.Mach.fregs frs2);
      m.Mach.pc <- next
  | Insn.Csr (op, rd, rs1, addr) -> (
      try
        let csr = m.Mach.csr in
        let old_v =
          match op with
          | Insn.CSRRW | Insn.CSRRWI when rd = 0 -> 0L
          | _ -> Csr.read csr addr
        in
        let src =
          match op with
          | Insn.CSRRW | Insn.CSRRS | Insn.CSRRC -> Mach.get_reg m rs1
          | Insn.CSRRWI | Insn.CSRRSI | Insn.CSRRCI -> Int64.of_int rs1
        in
        (match op with
        | Insn.CSRRW | Insn.CSRRWI -> Csr.write csr addr src
        | Insn.CSRRS | Insn.CSRRSI ->
            if rs1 <> 0 then Csr.write csr addr (Int64.logor old_v src)
        | Insn.CSRRC | Insn.CSRRCI ->
            if rs1 <> 0 then
              Csr.write csr addr (Int64.logand old_v (Int64.lognot src)));
        Mach.set_reg m rd old_v;
        if addr = Csr.satp || addr = Csr.mstatus || addr = Csr.sstatus then begin
          Mach.sync_translation m;
          (* the code mapping may have changed under the block cache *)
          if addr = Csr.satp then flush_blocks t
        end;
        m.Mach.pc <- next;
        c.Iss.Interp.csr_read <- Some (addr, old_v)
      with Csr.Illegal_csr _ ->
        raise (Trap.Exception (Trap.Illegal_instruction, 0L)))
  | Insn.Sfence_vma (_, _) | Insn.Fence_i ->
      Exec_generic.exec Exec_generic.host_fp m pc insn;
      flush_blocks t
  | _ -> Exec_generic.exec Exec_generic.host_fp m pc insn

(* --- step-to-commit ---------------------------------------------------- *)

let invalidate_cursor t =
  t.cur <- no_block;
  t.cur_ix <- 0;
  t.cur_pc <- Int64.min_int

(* The block cache, its page index and the cursor are derived from
   memory: LightSSS leaves them out of its image (a restored REF
   starts empty and recompiles lazily).  Returns the re-hook. *)
let detach_blocks t =
  let caches = Array.copy t.caches
  and page_index = t.page_index
  and cur = t.cur
  and cur_ix = t.cur_ix
  and cur_pc = t.cur_pc in
  Array.fill t.caches 0 (Array.length caches) [||];
  t.page_index <- Hashtbl.create 1;
  invalidate_cursor t;
  fun () ->
    Array.blit caches 0 t.caches 0 (Array.length caches);
    t.page_index <- page_index;
    t.cur <- cur;
    t.cur_ix <- cur_ix;
    t.cur_pc <- cur_pc

(* Count a retired step. *)
let retire t =
  let csr = t.m.Mach.csr in
  t.instret <- t.instret + 1;
  csr.Csr.reg_minstret <- csr.Csr.reg_minstret + 1;
  t.m.Mach.instret <- t.m.Mach.instret + 1

(* Execution went on straight-line from [b.(ix)]: stay on the block
   ([b] may have been flushed by the instruction itself -- the
   physical-equality check drops the cursor then). *)
let advance t b ix straight =
  if ix + 1 < Array.length b.b_insns && t.cur == b then begin
    t.cur_ix <- ix + 1;
    t.cur_pc <- straight
  end
  else invalidate_cursor t

let nop = Insn.Op_imm (Insn.ADD, 0, 0, 0L)

let step (t : t) : Iss.Interp.step_result =
  if exited t then Iss.Interp.Exited
  else begin
    let m = t.m in
    let pc = m.Mach.pc in
    let r = t.report in
    let c = r.Iss.Interp.commit in
    let forced = t.forced in
    t.forced <- None;
    match forced with
    | Some (Force_interrupt irq) ->
        Mach.take_irq m irq;
        invalidate_cursor t;
        Iss.Interp.begin_commit r ~pc ~insn:nop;
        c.Iss.Interp.next_pc <- m.Mach.pc;
        c.Iss.Interp.interrupt <- Some irq;
        r.Iss.Interp.committed
    | Some (Force_exception (exc, tval)) ->
        Mach.take_trap m exc tval ~epc:pc;
        invalidate_cursor t;
        Iss.Interp.begin_commit r ~pc ~insn:nop;
        c.Iss.Interp.next_pc <- m.Mach.pc;
        c.Iss.Interp.trap <- Some { Iss.Interp.exc; tval };
        r.Iss.Interp.committed
    | None ->
        (try
           if not (Int64.equal t.cur_pc pc) then begin
             let b = lookup_or_compile t pc in
             t.cur <- b;
             t.cur_ix <- 0;
             t.cur_pc <- pc
           end;
           let b = t.cur in
           let ix = t.cur_ix in
           let insn = Array.unsafe_get b.b_insns ix in
           let straight = Array.unsafe_get b.b_pcs (ix + 1) in
           Iss.Interp.begin_commit r ~pc ~insn;
           match Array.unsafe_get b.b_ops ix with
           | O_straight f ->
               f ();
               m.Mach.pc <- straight;
               advance t b ix straight;
               c.Iss.Interp.next_pc <- straight
           | O_jump g ->
               let next = g pc in
               m.Mach.pc <- next;
               if Int64.equal next straight then advance t b ix straight
               else invalidate_cursor t;
               c.Iss.Interp.next_pc <- next
           | O_slow ->
               exec_commit t pc ~next:straight insn;
               if Int64.equal m.Mach.pc straight then advance t b ix straight
               else invalidate_cursor t;
               c.Iss.Interp.next_pc <- m.Mach.pc
         with Trap.Exception (exc, tval) ->
           Mach.take_trap m exc tval ~epc:pc;
           invalidate_cursor t;
           Iss.Interp.begin_commit r ~pc ~insn:(Insn.Illegal 0l);
           c.Iss.Interp.next_pc <- m.Mach.pc;
           c.Iss.Interp.trap <- Some { Iss.Interp.exc; tval });
        retire t;
        r.Iss.Interp.committed
  end

(* --- architectural-state diff ------------------------------------------ *)

(* DUT-vs-REF comparison.  The equality pass reads the Bigarray
   register files in place and allocates nothing (top-level loops, so
   no closure either); only a mismatch goes to [Arch_state.report],
   the message builder the ISS REF uses too. *)
let rec regs_match (dut : Arch_state.t) (m : Mach.t) i =
  i > 31
  || dut.Arch_state.regs.(i) = Bigarray.Array1.get m.Mach.regs i
     && regs_match dut m (i + 1)

let rec fregs_match (dut : Arch_state.t) (m : Mach.t) i =
  i > 31
  || dut.Arch_state.fregs.(i) = Bigarray.Array1.get m.Mach.fregs i
     && fregs_match dut m (i + 1)

let diff_against t (dut : Arch_state.t) : string option =
  let m = t.m in
  if
    dut.Arch_state.pc = m.Mach.pc
    && regs_match dut m 1 && fregs_match dut m 0
    && Csr.digest_equal dut.Arch_state.csr m.Mach.csr
  then None
  else
    Arch_state.report dut ~pc:m.Mach.pc
      ~reg:(Bigarray.Array1.get m.Mach.regs)
      ~freg:(Bigarray.Array1.get m.Mach.fregs)
      ~csr:m.Mach.csr

(* Standalone run loop (bench + conformance tests): retire up to
   [max_insns] instructions, returning how many actually retired. *)
let run ?(max_insns = 1_000_000_000) (t : t) : int =
  let rec go n =
    if n >= max_insns then n
    else
      match step t with
      | Iss.Interp.Exited -> n
      | Iss.Interp.Committed _ -> go (n + 1)
  in
  go 0
