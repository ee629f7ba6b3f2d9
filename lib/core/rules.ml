(* The standard diff-rule set for RISC-V processors (§III-B2).

   Each rule abstracts one source of legal non-determinism.  Beyond
   these, the machine-mode CSR rules of the paper (the "at least 120"
   simple value rules) are generated programmatically in
   [csr_read_rules]. *)

open Riscv

(* --- 1. speculative page faults (Figure 3) --------------------------- *)

(* The DUT may take a page fault the REF would not take (speculative
   TLB walk raced a PTE store still in the store buffer, or a cached
   invalid PTE before sfence.vma).  The REF is forced to take the same
   trap.  Identical architectural state afterwards is still required
   (checked by the post-step state comparison). *)
let page_fault_forcing () =
  Rule.make ~name:"page-fault-forcing"
    ~descr:
      "DUT may fault on speculative/stale translations; REF is forced to \
       take the same trap"
    ~pre:(fun ctx ~hart (p : Xiangshan.Probe.commit) ->
      match p.p_trap with
      | Some (exc, tval) ->
          Rule.bump_force_guard ctx ~hart ~probe:p ~rule:"page-fault-forcing";
          ctx.Rule.refs.(hart).Ref_model.force_exception exc tval;
          true
      | None ->
          Rule.clear_force_guard ctx ~hart ~probe:p;
          false)
    ()

(* --- 2. asynchronous interrupts -------------------------------------- *)

let interrupt_forcing () =
  Rule.make ~name:"interrupt-forcing"
    ~descr:
      "interrupt arrival cycles are micro-architectural; REF takes the \
       interrupt exactly when the DUT does"
    ~pre:(fun ctx ~hart (p : Xiangshan.Probe.commit) ->
      match p.p_interrupt with
      | Some irq ->
          (* mirror the pending bit so mip-dependent behaviour matches *)
          let r = ctx.Rule.refs.(hart) in
          r.Ref_model.set_mip_bit (Trap.irq_code irq) true;
          r.Ref_model.force_interrupt irq;
          true
      | None -> false)
    ()

(* --- 3. SC failures (LR/SC timeout, §III-B2c) ------------------------- *)

let sc_failure_forcing () =
  Rule.make ~name:"sc-failure-forcing"
    ~descr:
      "SC may fail on reservation timeout or eviction; the DUT failure is \
       trusted and the REF SC is forced to fail too"
    ~pre:(fun ctx ~hart (p : Xiangshan.Probe.commit) ->
      if p.p_sc_failed then begin
        Rule.bump_force_guard ctx ~hart ~probe:p ~rule:"sc-failure-forcing";
        ctx.Rule.refs.(hart).Ref_model.force_sc_failure ();
        true
      end
      else false)
    ()

(* --- 4. non-deterministic CSR reads ----------------------------------- *)

(* Reads of counters and asynchronous status are micro-architecture
   dependent: the DUT value is copied into the REF's destination
   register and counter state.  This family stands in for the paper's
   ~120 machine-mode CSR value rules. *)
let nondet_csrs =
  [ Csr.cycle; Csr.mcycle; Csr.time; Csr.instret; Csr.minstret; Csr.mip ]

let csr_read_rule () =
  Rule.make ~name:"csr-nondet-read"
    ~descr:
      "cycle/time/instret/mip reads depend on timing; the DUT value is \
       propagated to the REF"
    ~post:(fun ctx ~hart (p : Xiangshan.Probe.commit) (c : Ref_model.commit) ->
      match (p.p_csr_read, c.Ref_model.csr_read) with
      | Some (addr, dut_v), Some (raddr, ref_v)
        when addr = raddr && List.mem addr nondet_csrs ->
          if dut_v <> ref_v then begin
            let rd =
              match p.p_insn with Insn.Csr (_, rd, _, _) -> rd | _ -> 0
            in
            let r = ctx.Rule.refs.(hart) in
            r.Ref_model.patch_reg rd dut_v;
            (* keep the REF counters loosely in sync going forward *)
            if addr = Csr.cycle || addr = Csr.mcycle then
              r.Ref_model.set_mcycle dut_v;
            if addr = Csr.time then
              Platform.Clint.set_mtime r.Ref_model.clint dut_v;
            Rule.Patched
          end
          else Rule.Pass
      | _ -> Rule.Pass)
    ()

(* --- 5. MMIO loads ----------------------------------------------------- *)

let mmio_load_trust () =
  Rule.make ~name:"mmio-load-trust"
    ~descr:
      "memory-mapped IO devices are not modelled in the REF in detail; the \
       DUT's MMIO load value is trusted and copied to the REF"
    ~post:(fun ctx ~hart (p : Xiangshan.Probe.commit) (c : Ref_model.commit) ->
      if p.p_mmio then begin
        match c.Ref_model.load with
        | Some _ when p.p_has_load ->
            let rd =
              match p.p_insn with
              | Insn.Load (_, rd, _, _) -> rd
              | _ -> 0
            in
            let extended =
              match p.p_insn with
              | Insn.Load (op, _, _, _) ->
                  Iss.Alu.extend_load op p.p_load_value
              | _ -> p.p_load_value
            in
            ctx.Rule.refs.(hart).Ref_model.patch_reg rd extended;
            Rule.Patched
        | _ -> Rule.Pass
      end
      else Rule.Pass)
    ()

(* --- 6. the Global Memory rule (multi-core, §III-B2b) ------------------ *)

let global_memory_load () =
  Rule.make ~name:"global-memory-load"
    ~descr:
      "a load value differing from the single-core REF is legal if it \
       matches a store another hart drained into the cache hierarchy; the \
       REF's local memory and destination register are updated"
    ~post:(fun ctx ~hart (p : Xiangshan.Probe.commit) (c : Ref_model.commit) ->
      match c.Ref_model.load with
      | Some ref_acc when p.p_has_load && not p.p_mmio ->
          if p.p_load_value = ref_acc.Ref_model.value then
            Rule.Pass
          else if Array.length ctx.Rule.refs <= 1 then
            (* single hart: no other thread can have produced the
               value, so the whitewash is off -- any divergence is a
               real bug (stale TLB entries, poisoned cache lines and
               dropped store-to-load forwarding all land here) *)
            Rule.Fail
              (Printf.sprintf
                 "load @0x%Lx: DUT=0x%Lx REF=0x%Lx on a single-hart SoC (no \
                  cross-thread store can justify it)"
                 p.p_mem_paddr p.p_load_value
                 ref_acc.Ref_model.value)
          else if
            Global_memory.compatible ctx.Rule.global_mem
              ~at:p.p_mem_cycle ~paddr:p.p_mem_paddr
              ~size:p.p_mem_size
              ~value:p.p_load_value
          then begin
            (* legal cross-thread value: patch REF memory and rd *)
            let r = ctx.Rule.refs.(hart) in
            r.Ref_model.patch_mem ~paddr:p.p_mem_paddr
              ~size:p.p_mem_size
              ~value:p.p_load_value;
            (match p.p_insn with
            | Insn.Load (op, rd, _, _) ->
                r.Ref_model.patch_reg rd
                  (Iss.Alu.extend_load op p.p_load_value)
            | Insn.Lr (w, rd, _) | Insn.Amo (_, w, rd, _, _) ->
                let v = Iss.Alu.extend_amo w p.p_load_value in
                (* AMO rd gets the loaded (old) value; redo the AMO
                   store on the REF with the patched old value *)
                r.Ref_model.patch_reg rd v;
                (match p.p_insn with
                | Insn.Amo (op, w, _, _, rs2) ->
                    let src = r.Ref_model.get_reg rs2 in
                    let nv = Iss.Alu.eval_amo op w v src in
                    r.Ref_model.patch_mem ~paddr:p.p_mem_paddr
                      ~size:p.p_mem_size ~value:nv
                | _ -> ())
            | Insn.Fld (frd, _, _) ->
                r.Ref_model.patch_freg frd p.p_load_value
            | _ -> ());
            Rule.Patched
          end
          else
            Rule.Fail
              (Printf.sprintf
                 "load @0x%Lx: DUT=0x%Lx REF=0x%Lx and Global Memory cannot \
                  justify the DUT value"
                 p.p_mem_paddr p.p_load_value
                 ref_acc.Ref_model.value)
      | _ -> Rule.Pass)
    ()

(* Fresh rule instances (fire counters are per-DiffTest). *)
let standard () : Rule.t list =
  [
    page_fault_forcing ();
    interrupt_forcing ();
    sc_failure_forcing ();
    csr_read_rule ();
    mmio_load_trust ();
    global_memory_load ();
  ]
