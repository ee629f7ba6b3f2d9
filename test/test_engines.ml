(* Interpreter engines: architectural equivalence of NEMU and the
   three baselines against the reference ISS across the workload
   suite, plus engine-specific structure (uop-cache behaviour). *)

let iss_reference prog =
  let m = Iss.Interp.create ~hartid:0 () in
  Iss.Interp.load_program m prog;
  let n = Iss.Interp.run ~max_insns:100_000_000 m in
  (n, Iss.Interp.exit_code m, m)

let run_engine kind prog =
  let m = Nemu.Mach.create () in
  Nemu.Mach.load_program m prog;
  let n =
    match kind with
    | Nemu.Engine.Nemu ->
        let t = Nemu.Fast.create m in
        Nemu.Fast.run t ~max_insns:100_000_000
    | Nemu.Engine.Spike_like -> Nemu.Spike_like.run m ~max_insns:100_000_000
    | Nemu.Engine.Qemu_tci_like ->
        Nemu.Qemu_tci_like.run m ~max_insns:100_000_000
    | Nemu.Engine.Dromajo_like -> Nemu.Dromajo_like.run m ~max_insns:100_000_000
  in
  (n, Nemu.Mach.exit_code m, m)

let equivalence_case (w : Workloads.Wl_common.t) =
  Alcotest.test_case (w.wl_name ^ " on all engines") `Slow (fun () ->
      let prog = w.program ~scale:w.small in
      let n_ref, code_ref, iss = iss_reference prog in
      List.iter
        (fun kind ->
          let n, code, m = run_engine kind prog in
          let name = Nemu.Engine.name kind in
          Alcotest.(check int) (name ^ " instret") n_ref n;
          Alcotest.(check (option int)) (name ^ " exit code") code_ref code;
          (* final integer register file must agree *)
          for r = 1 to 31 do
            Alcotest.(check int64)
              (Printf.sprintf "%s x%d" name r)
              (Riscv.Arch_state.get_reg iss.Iss.Interp.st r)
              (Nemu.Mach.get_reg m r)
          done)
        Nemu.Engine.all)

let test_uop_cache_structure () =
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let m = Nemu.Mach.create () in
  Nemu.Mach.load_program m prog;
  let t = Nemu.Fast.create m in
  let n = Nemu.Fast.run t ~max_insns:10_000_000 in
  Alcotest.(check bool) "ran" true (n > 1000);
  (* trace organisation: far fewer compilations than executions *)
  Alcotest.(check bool)
    (Printf.sprintf "compiled %d << executed %d" t.Nemu.Fast.compiled n)
    true
    (t.Nemu.Fast.compiled * 10 < n);
  (* block chaining: slow lookups are a small fraction of executions *)
  Alcotest.(check bool)
    (Printf.sprintf "slow lookups %d" t.Nemu.Fast.slow_lookups)
    true
    (t.Nemu.Fast.slow_lookups * 5 < n)

let test_uop_cache_eviction_on_capacity () =
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let m = Nemu.Mach.create () in
  Nemu.Mach.load_program m prog;
  (* tiny capacity: the cache must evict victims (not flush wholesale)
     and stale chains must self-heal, with execution staying correct *)
  let t = Nemu.Fast.create ~capacity:16 m in
  let _ = Nemu.Fast.run t ~max_insns:10_000_000 in
  Alcotest.(check bool) "evicted" true (t.Nemu.Fast.evictions > 0);
  Alcotest.(check bool) "chains self-healed" true (t.Nemu.Fast.recompiles > 0);
  Alcotest.(check bool) "cache stayed bounded" true
    (Hashtbl.length t.Nemu.Fast.cache <= 2 * t.Nemu.Fast.capacity);
  Alcotest.(check (option int)) "still correct" (Some 199) (Nemu.Mach.exit_code m)

(* --- superblock NEMU vs step-by-step reference ------------------------

   The superblock engine must be architecturally indistinguishable
   from executing Exec_generic.step in a loop: same final registers,
   CSRs, memory, pc and instret -- including across paging, mid-block
   traps (page faults and misaligned accesses that fire from inside a
   fused body) and cache eviction. *)

(* advance [m] by up to [n] instructions of generic stepping *)
let step_on m n =
  let steps = ref 0 in
  while m.Nemu.Mach.running && !steps < n do
    Nemu.Exec_generic.step Nemu.Exec_generic.host_fp m;
    incr steps;
    if !steps land 0xFF = 0 then Nemu.Mach.check_running m
  done;
  Nemu.Mach.check_running m

let step_reference ?(max_insns = 50_000_000) prog =
  let m = Nemu.Mach.create () in
  Nemu.Mach.load_program m prog;
  step_on m max_insns;
  m

let nemu_superblock ?capacity ?(max_insns = 50_000_000) prog =
  let m = Nemu.Mach.create () in
  Nemu.Mach.load_program m prog;
  let t = Nemu.Fast.create ?capacity m in
  let _ = Nemu.Fast.run t ~max_insns in
  m

let mem_digest (mem : Riscv.Memory.t) =
  let buf = Buffer.create 256 in
  Riscv.Memory.iter_pages mem (fun i data ->
      Buffer.add_string buf (string_of_int i);
      Buffer.add_string buf (Digest.to_hex (Digest.bytes data)));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let check_same_arch name (ref_m : Nemu.Mach.t) (m : Nemu.Mach.t) =
  Alcotest.(check (option int))
    (name ^ " exit code")
    (Nemu.Mach.exit_code ref_m) (Nemu.Mach.exit_code m);
  Alcotest.(check int)
    (name ^ " instret") ref_m.Nemu.Mach.instret m.Nemu.Mach.instret;
  Alcotest.(check int64) (name ^ " pc") ref_m.Nemu.Mach.pc m.Nemu.Mach.pc;
  for r = 1 to 31 do
    Alcotest.(check int64)
      (Printf.sprintf "%s x%d" name r)
      (Nemu.Mach.get_reg ref_m r) (Nemu.Mach.get_reg m r)
  done;
  for f = 0 to 31 do
    Alcotest.(check int64)
      (Printf.sprintf "%s f%d" name f)
      (Bigarray.Array1.get ref_m.Nemu.Mach.fregs f)
      (Bigarray.Array1.get m.Nemu.Mach.fregs f)
  done;
  Alcotest.(check (list (pair string int64)))
    (name ^ " csrs")
    (Riscv.Csr.compare_digest ref_m.Nemu.Mach.csr)
    (Riscv.Csr.compare_digest m.Nemu.Mach.csr);
  Alcotest.(check string)
    (name ^ " memory")
    (mem_digest ref_m.Nemu.Mach.plat.Riscv.Platform.mem)
    (mem_digest m.Nemu.Mach.plat.Riscv.Platform.mem)

(* Straight-line runs with misaligned loads/stores in the middle: the
   trap fires from inside a fused superblock body and must retire a
   precise instruction count and epc; the M-mode handler skips the
   faulting instruction (mepc += 4) and returns. *)
let trap_torture_program =
  let open Riscv in
  let open Workloads.Wl_common.Ops in
  Asm.assemble
    ([
       Asm.la Asm.t0 "handler";
       Asm.i (Insn.Csr (CSRRW, 0, Asm.t0, Csr.mtvec));
       Asm.li Asm.s1 0L;
       Asm.li Asm.s2 (Int64.add Platform.dram_base 0x10000L);
       Asm.li Asm.s3 5L;
       Asm.label "loop";
       addi Asm.s1 Asm.s1 1;
       addi Asm.s1 Asm.s1 2;
       sd Asm.s1 Asm.s2 0;
       ld Asm.t1 Asm.s2 0;
       add Asm.s1 Asm.s1 Asm.t1;
       lw Asm.t2 Asm.s2 1; (* misaligned: traps mid-block *)
       add Asm.s1 Asm.s1 Asm.t2;
       addi Asm.s1 Asm.s1 3;
       sw Asm.s1 Asm.s2 8;
       sw Asm.s1 Asm.s2 3; (* misaligned: traps mid-block *)
       lbu Asm.t3 Asm.s2 3;
       add Asm.s1 Asm.s1 Asm.t3;
       addi Asm.s3 Asm.s3 (-1);
       Asm.bnez Asm.s3 "loop";
       Asm.mv Asm.a0 Asm.s1;
     ]
    @ Workloads.Wl_common.exit_with Asm.a0
    @ [
        Asm.label "handler";
        Asm.i (Insn.Csr (CSRRS, Asm.t5, 0, Csr.mepc));
        addi Asm.t5 Asm.t5 4;
        Asm.i (Insn.Csr (CSRRW, 0, Asm.t5, Csr.mepc));
        Asm.i Insn.Mret;
      ])

let test_superblock_vs_step_fuzz () =
  for seed = 1 to 12 do
    let prog = Workloads.Testgen.program ~seed () in
    let name = Printf.sprintf "testgen seed %d" seed in
    let ref_m = step_reference prog in
    check_same_arch name ref_m (nemu_superblock prog);
    (* again with a tiny cache so eviction + chain self-healing is on
       the execution path *)
    check_same_arch (name ^ " (evicting)") ref_m
      (nemu_superblock ~capacity:8 prog)
  done

let test_superblock_vs_step_paging () =
  List.iter
    (fun (name, prog) ->
      let ref_m = step_reference prog in
      check_same_arch name ref_m (nemu_superblock prog))
    [
      ("vm_kernel", Workloads.Vm_kernel.program ~rounds:3 ~scale:2 ());
      ("user_mode", Workloads.User_mode.program ~scale:2 ());
    ]

let test_superblock_vs_step_midblock_traps () =
  let ref_m = step_reference trap_torture_program in
  Alcotest.(check bool) "reference terminated" true
    (Nemu.Mach.exit_code ref_m <> None);
  check_same_arch "trap torture" ref_m (nemu_superblock trap_torture_program);
  check_same_arch "trap torture (evicting)" ref_m
    (nemu_superblock ~capacity:8 trap_torture_program)

(* exact budget stops: run ~max_insns must retire exactly max_insns
   even when the boundary falls inside a superblock (checkpoint
   sampling relies on this) *)
let test_exact_budget_stops () =
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let ref_m = step_reference prog in
  List.iter
    (fun budget ->
      let m = Nemu.Mach.create () in
      Nemu.Mach.load_program m prog;
      let t = Nemu.Fast.create m in
      let n = Nemu.Fast.run t ~max_insns:budget in
      Alcotest.(check int)
        (Printf.sprintf "retired exactly %d" budget)
        budget n;
      Alcotest.(check int)
        (Printf.sprintf "instret at %d" budget)
        budget m.Nemu.Mach.instret;
      (* resume: the partial stop must be a clean suspension point *)
      let rest = Nemu.Fast.run t ~max_insns:50_000_000 in
      Alcotest.(check int) "total instret" ref_m.Nemu.Mach.instret
        (budget + rest);
      check_same_arch (Printf.sprintf "resumed after %d" budget) ref_m m)
    [ 1; 2; 3; 7; 50; 1234; 9_999; 14_000 ]

(* Self-modifying code: a loop runs from compiled superblocks, then
   the program overwrites an instruction inside the loop body and
   issues fence.i -- the second pass must execute the patched
   instruction.  Pass 1 adds 1 per iteration, the patch turns the addi
   into +5, so the exit code separates stale-block execution from
   correct invalidation. *)
let selfmod_fencei_program =
  let open Riscv in
  let open Workloads.Wl_common.Ops in
  Asm.assemble
    ([
       Asm.la Asm.t3 "site";
       Asm.li Asm.t4 0x00550513L (* addi a0, a0, 5 *);
       Asm.li Asm.s2 0L;
       Asm.li Asm.s1 20L;
       Asm.li Asm.a0 0L;
       Asm.label "loop";
       Asm.label "site";
       addi Asm.a0 Asm.a0 1;
       addi Asm.s1 Asm.s1 (-1);
       Asm.bnez Asm.s1 "loop";
       Asm.bnez Asm.s2 "done";
       Asm.li Asm.s2 1L;
       sw Asm.t4 Asm.t3 0;
       Asm.i Insn.Fence_i;
       Asm.li Asm.s1 20L;
       Asm.j "loop";
       Asm.label "done";
     ]
    @ Workloads.Wl_common.exit_with Asm.a0)

let test_selfmod_fencei () =
  let ref_m = step_reference selfmod_fencei_program in
  Alcotest.(check (option int))
    "reference executes the patched code" (Some 120)
    (Nemu.Mach.exit_code ref_m);
  check_same_arch "self-modifying store + fence.i" ref_m
    (nemu_superblock selfmod_fencei_program)

(* Indirect jumps: a call site alternating between two callees through
   a register, so the jalr terminal and the callees' rets resolve a
   changing target through the hash list on every call. *)
let indirect_call_program =
  let open Riscv in
  let open Workloads.Wl_common.Ops in
  Asm.assemble
    ([
       Asm.la Asm.t0 "f1";
       Asm.la Asm.t1 "f2";
       Asm.li Asm.s1 60L;
       Asm.li Asm.a0 0L;
       Asm.label "loop";
       Asm.i (Insn.Jalr (Asm.ra, Asm.t0, 0L));
       Asm.mv Asm.t2 Asm.t0;
       Asm.mv Asm.t0 Asm.t1;
       Asm.mv Asm.t1 Asm.t2;
       addi Asm.s1 Asm.s1 (-1);
       Asm.bnez Asm.s1 "loop";
       Asm.j "done";
       Asm.label "f1";
       addi Asm.a0 Asm.a0 1;
       Asm.ret;
       Asm.label "f2";
       addi Asm.a0 Asm.a0 3;
       Asm.ret;
       Asm.label "done";
     ]
    @ Workloads.Wl_common.exit_with Asm.a0)

let test_indirect_calls () =
  let ref_m = step_reference indirect_call_program in
  Alcotest.(check (option int))
    "reference exit" (Some 120)
    (Nemu.Mach.exit_code ref_m);
  check_same_arch "indirect calls" ref_m (nemu_superblock indirect_call_program)

(* The whole workload suite against generic stepping under one exact
   instruction budget, so workloads that do not exit within it still
   compare state at the same retirement point. *)
let test_suite_vs_step () =
  List.iter
    (fun (w : Workloads.Wl_common.t) ->
      let prog = w.program ~scale:w.small in
      check_same_arch w.wl_name
        (step_reference ~max_insns:3_000_000 prog)
        (nemu_superblock ~max_insns:3_000_000 prog))
    (Workloads.Suite.all @ Workloads.Suite.llc_stress)

(* --- stop-and-resume cases ---------------------------------------------

   These four cases keep the names they had under the former trace
   megablock tier, whose long chained runs they targeted.  They now
   drive the superblock engine through budget stops at arbitrary
   points of chained code, and compare the full state at the stops
   themselves rather than only at exit. *)

(* run to exit in [chunk]-instruction slices: every slice but the last
   must retire exactly [chunk] *)
let nemu_chunked ~chunk prog =
  let m = Nemu.Mach.create () in
  Nemu.Mach.load_program m prog;
  let t = Nemu.Fast.create m in
  let slices = ref 0 in
  while m.Nemu.Mach.running && !slices < 1_000_000 do
    let n = Nemu.Fast.run t ~max_insns:chunk in
    if m.Nemu.Mach.running then
      Alcotest.(check int) "slice retires exactly its budget" chunk n;
    incr slices
  done;
  m

(* fresh testgen seeds (the superblock fuzz test covers 1-12), each in
   one run and again sliced into 97-instruction budgets *)
let test_megablock_vs_step_fuzz () =
  for seed = 13 to 24 do
    let prog = Workloads.Testgen.program ~seed () in
    let name = Printf.sprintf "testgen seed %d" seed in
    let ref_m = step_reference prog in
    check_same_arch name ref_m (nemu_superblock prog);
    check_same_arch (name ^ " (sliced)") ref_m (nemu_chunked ~chunk:97 prog)
  done

(* budget stops that fall across privilege switches, page-table walks
   and sfence.vma flushes *)
let test_megablock_paging () =
  List.iter
    (fun (name, prog) ->
      let ref_m = step_reference prog in
      check_same_arch (name ^ " (sliced)") ref_m (nemu_chunked ~chunk:61 prog))
    [
      ("vm_kernel", Workloads.Vm_kernel.program ~rounds:3 ~scale:2 ());
      ("user_mode", Workloads.User_mode.program ~scale:2 ());
    ]

(* precision at every retirement point of the trap torture program: a
   fresh engine run for exactly k instructions must match generic
   stepping after k, for every k up to exit -- so each mid-block trap
   is seen from both sides of its boundary *)
let test_megablock_midtrace_traps () =
  let prog = trap_torture_program in
  let total = (step_reference prog).Nemu.Mach.instret in
  let ref_m = Nemu.Mach.create () in
  Nemu.Mach.load_program ref_m prog;
  for k = 1 to total do
    step_on ref_m 1;
    check_same_arch
      (Printf.sprintf "after %d" k)
      ref_m
      (nemu_superblock ~max_insns:k prog)
  done

(* exact stops in warm, chained code: after a warm-up run, each budget
   stop is compared with generic stepping at the same retirement point
   before the run resumes *)
let test_megablock_exact_budget_stops () =
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let ref_m = Nemu.Mach.create () in
  Nemu.Mach.load_program ref_m prog;
  let m = Nemu.Mach.create () in
  Nemu.Mach.load_program m prog;
  let t = Nemu.Fast.create m in
  List.iter
    (fun budget ->
      let n = Nemu.Fast.run t ~max_insns:budget in
      Alcotest.(check int)
        (Printf.sprintf "retired exactly %d" budget)
        budget n;
      step_on ref_m budget;
      check_same_arch (Printf.sprintf "stop after +%d" budget) ref_m m)
    [ 5_000; 1; 2; 3; 7; 50; 1234; 7_777 ];
  let _ = Nemu.Fast.run t ~max_insns:50_000_000 in
  step_on ref_m 50_000_000;
  check_same_arch "resumed to exit" ref_m m

let test_spike_decode_cache_conflicts () =
  let prog = (Workloads.Suite.find "sort_like").program ~scale:1 in
  let m = Nemu.Mach.create () in
  Nemu.Mach.load_program m prog;
  let c = Nemu.Spike_like.create ~size:64 () in
  (* drive manually to observe hit/miss counters *)
  let steps = ref 0 in
  while m.Nemu.Mach.running && !steps < 200_000 do
    Nemu.Spike_like.step c m;
    incr steps
  done;
  Alcotest.(check bool) "hits" true (c.Nemu.Spike_like.hits > 0);
  Alcotest.(check bool) "some conflict misses with a tiny cache" true
    (c.Nemu.Spike_like.misses > 10)

let test_mips_ordering () =
  (* relative performance shape of Figure 8 on one int workload:
     NEMU fastest; dromajo slowest *)
  let prog = (Workloads.Suite.find "mcf_like").program ~scale:2 in
  let mips kind =
    let n, secs = Nemu.Engine.run_program ~max_insns:30_000_000 kind prog in
    Nemu.Engine.mips n secs
  in
  let nemu = mips Nemu.Engine.Nemu in
  let spike = mips Nemu.Engine.Spike_like in
  let dromajo = mips Nemu.Engine.Dromajo_like in
  Alcotest.(check bool)
    (Printf.sprintf "NEMU (%.0f) > Spike-like (%.0f)" nemu spike)
    true (nemu > spike);
  Alcotest.(check bool)
    (Printf.sprintf "Spike-like (%.0f) > Dromajo-like (%.0f)" spike dromajo)
    true (spike > dromajo)

(* the Sv39 workloads also run on every engine: translation goes
   through the generic fallback path (NEMU keys its uop cache on
   virtual pcs; the identity and user windows are distinct) *)
let paging_case (w : Workloads.Wl_common.t) =
  Alcotest.test_case (w.wl_name ^ " on all engines (paging)") `Slow (fun () ->
      let prog = w.program ~scale:1 in
      let _, code_ref, _ = iss_reference prog in
      Alcotest.(check bool) "terminates" true (code_ref <> None);
      List.iter
        (fun kind ->
          let _, code, _ = run_engine kind prog in
          Alcotest.(check (option int))
            (Nemu.Engine.name kind ^ " exit")
            code_ref code)
        Nemu.Engine.all)

let tests =
  List.map equivalence_case Workloads.Suite.all
  @ List.map paging_case [ Workloads.Vm_kernel.spec; Workloads.User_mode.spec ]
  @ [
      Alcotest.test_case "uop cache: trace organisation" `Quick
        test_uop_cache_structure;
      Alcotest.test_case "uop cache: capacity eviction" `Quick
        test_uop_cache_eviction_on_capacity;
      Alcotest.test_case "superblock vs step: testgen fuzz" `Quick
        test_superblock_vs_step_fuzz;
      Alcotest.test_case "superblock vs step: paging workloads" `Quick
        test_superblock_vs_step_paging;
      Alcotest.test_case "superblock vs step: mid-block traps" `Quick
        test_superblock_vs_step_midblock_traps;
      Alcotest.test_case "superblock: exact budget stops" `Quick
        test_exact_budget_stops;
      Alcotest.test_case "superblock: self-modifying store + fence.i" `Quick
        test_selfmod_fencei;
      Alcotest.test_case "superblock: indirect calls" `Quick
        test_indirect_calls;
      Alcotest.test_case "superblock vs step: suite at an exact budget" `Slow
        test_suite_vs_step;
      Alcotest.test_case "megablocks vs step: testgen fuzz (on and off)" `Quick
        test_megablock_vs_step_fuzz;
      Alcotest.test_case "megablocks vs step: paging workloads" `Quick
        test_megablock_paging;
      Alcotest.test_case "megablocks: mid-trace traps are precise" `Quick
        test_megablock_midtrace_traps;
      Alcotest.test_case "megablocks: exact budget stops inside traces" `Quick
        test_megablock_exact_budget_stops;
      Alcotest.test_case "spike-like decode cache conflicts" `Quick
        test_spike_decode_cache_conflicts;
      Alcotest.test_case "engine performance ordering (Figure 8 shape)" `Slow
        test_mips_ordering;
    ]
