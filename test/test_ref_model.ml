(* REF conformance: the two Ref_model backends (the ISS interpreter
   and the NEMU block-compiled non-autonomous core) must be
   observationally identical -- same commit stream stepped standalone,
   same response to the DRAV control plane, same verdicts and
   rule-fire counts under DiffTest, and interchangeable in the
   fault-injection workflow. *)

open Riscv

let both = [ Minjie.Ref_model.Iss; Minjie.Ref_model.Nemu ]

let make kind prog = Minjie.Ref_model.create ~kind ~hartid:0 ~prog ()

let show_commit (c : Minjie.Ref_model.commit) =
  Printf.sprintf "pc=0x%Lx next=0x%Lx insn=%s trap=%s load=%s store=%s" c.pc
    c.next_pc (Insn.show c.insn)
    (match c.trap with
    | Some t -> Trap.show_exc t.Minjie.Ref_model.exc
    | None -> "-")
    (match c.load with
    | Some a -> Printf.sprintf "0x%Lx=0x%Lx" a.paddr a.value
    | None -> "-")
    (match c.store with
    | Some a -> Printf.sprintf "0x%Lx=0x%Lx" a.paddr a.value
    | None -> "-")

(* Step both REFs to program exit, requiring every commit record --
   pc, next pc, decoded instruction, traps, memory accesses, CSR
   reads -- to match field for field. *)
let lockstep ?(max_insns = 2_000_000) name prog =
  let a = make Minjie.Ref_model.Iss prog
  and b = make Minjie.Ref_model.Nemu prog in
  let n = ref 0 and running = ref true in
  while !running do
    (match (a.Minjie.Ref_model.step (), b.Minjie.Ref_model.step ()) with
    | Minjie.Ref_model.Exited, Minjie.Ref_model.Exited -> running := false
    | Minjie.Ref_model.Committed ca, Minjie.Ref_model.Committed cb ->
        if ca <> cb then
          Alcotest.failf "%s: commit %d diverges\n  iss:  %s\n  nemu: %s" name
            !n (show_commit ca) (show_commit cb)
    | Minjie.Ref_model.Exited, Minjie.Ref_model.Committed c ->
        Alcotest.failf "%s: iss exited at %d, nemu still commits %s" name !n
          (show_commit c)
    | Minjie.Ref_model.Committed c, Minjie.Ref_model.Exited ->
        Alcotest.failf "%s: nemu exited at %d, iss still commits %s" name !n
          (show_commit c));
    incr n;
    if !n > max_insns then Alcotest.failf "%s: no exit in %d insns" name !n
  done;
  Alcotest.(check (option int))
    (name ^ " exit codes")
    (a.Minjie.Ref_model.exit_code ())
    (b.Minjie.Ref_model.exit_code ());
  for x = 1 to 31 do
    if a.Minjie.Ref_model.get_reg x <> b.Minjie.Ref_model.get_reg x then
      Alcotest.failf "%s: final x%d: iss 0x%Lx nemu 0x%Lx" name x
        (a.Minjie.Ref_model.get_reg x)
        (b.Minjie.Ref_model.get_reg x)
  done

let test_lockstep_fuzz () =
  for seed = 1 to 12 do
    lockstep
      (Printf.sprintf "testgen seed %d" seed)
      (Workloads.Testgen.program ~seed ())
  done

let test_lockstep_workloads () =
  List.iter
    (fun wname ->
      let w = Minjie.Campaign.find_workload wname in
      lockstep wname (w.Workloads.Wl_common.program ~scale:w.small))
    [ "coremark_like"; "mcf_like"; "vm_kernel"; "bwaves_like" ]

(* The control plane must behave identically: patches land in the
   same registers, forced traps redirect both backends to the same
   handler, and the commit streams re-converge afterwards. *)
let test_control_plane () =
  let prog =
    (Minjie.Campaign.find_workload "coremark_like").Workloads.Wl_common.program
      ~scale:1
  in
  let a = make Minjie.Ref_model.Iss prog
  and b = make Minjie.Ref_model.Nemu prog in
  let step_both what =
    match (a.Minjie.Ref_model.step (), b.Minjie.Ref_model.step ()) with
    | Minjie.Ref_model.Committed ca, Minjie.Ref_model.Committed cb ->
        if ca <> cb then
          Alcotest.failf "%s: commits diverge\n  iss:  %s\n  nemu: %s" what
            (show_commit ca) (show_commit cb);
        ca
    | _ -> Alcotest.failf "%s: unexpected exit" what
  in
  for _ = 1 to 50 do
    ignore (step_both "warm-up")
  done;
  (* register patch: visible to both immediately and to the next
     commit (NEMU's compiled routines read registers at call time) *)
  List.iter
    (fun (r : Minjie.Ref_model.t) ->
      r.Minjie.Ref_model.patch_reg 7 0x1234_5678L)
    [ a; b ];
  Alcotest.(check int64) "patched x7 (iss)" 0x1234_5678L
    (a.Minjie.Ref_model.get_reg 7);
  Alcotest.(check int64) "patched x7 (nemu)" 0x1234_5678L
    (b.Minjie.Ref_model.get_reg 7);
  ignore (step_both "after patch_reg");
  (* counter sync *)
  List.iter
    (fun (r : Minjie.Ref_model.t) ->
      r.Minjie.Ref_model.set_mcycle 9999L;
      Platform.Clint.set_mtime r.Minjie.Ref_model.clint 4242L;
      r.Minjie.Ref_model.set_counters ~cycle:10_000L ~instret:777L)
    [ a; b ];
  ignore (step_both "after counter sync");
  (* forced exception: both must trap on the next step, committing
     the same trap record and landing on the same handler pc *)
  List.iter
    (fun (r : Minjie.Ref_model.t) ->
      r.Minjie.Ref_model.force_exception Trap.Load_page_fault 0xdead_0000L)
    [ a; b ];
  let c = step_both "forced page fault" in
  (match c.Minjie.Ref_model.trap with
  | Some t ->
      Alcotest.(check bool)
        "forced trap cause" true
        (Trap.equal_exc t.Minjie.Ref_model.exc Trap.Load_page_fault)
  | None -> Alcotest.fail "forced page fault produced no trap commit");
  (* forced interrupt, with the pending bit mirrored first *)
  List.iter
    (fun (r : Minjie.Ref_model.t) ->
      r.Minjie.Ref_model.set_mip_bit (Trap.irq_code Trap.Mtip) true;
      r.Minjie.Ref_model.force_interrupt Trap.Mtip)
    [ a; b ];
  let c = step_both "forced interrupt" in
  (match c.Minjie.Ref_model.interrupt with
  | Some irq ->
      Alcotest.(check bool) "forced irq" true (Trap.equal_irq irq Trap.Mtip)
  | None -> Alcotest.fail "forced interrupt produced no interrupt commit");
  (* streams stay converged after the control-plane traffic *)
  for _ = 1 to 200 do
    ignore (step_both "post-control-plane")
  done

(* Memory patches must invalidate any NEMU uop block compiled from
   the patched page: patch the next instruction's bytes and require
   the new instruction to be the one committed. *)
let test_patch_mem_code () =
  let prog =
    (Minjie.Campaign.find_workload "coremark_like").Workloads.Wl_common.program
      ~scale:1
  in
  List.iter
    (fun kind ->
      let r = make kind prog in
      let c =
        match r.Minjie.Ref_model.step () with
        | Minjie.Ref_model.Committed c -> c
        | Minjie.Ref_model.Exited -> Alcotest.fail "exited on first step"
      in
      (* overwrite the already-compiled next instruction with
         addi x31, x0, 1  (0x00100f93) *)
      r.Minjie.Ref_model.patch_mem ~paddr:c.Minjie.Ref_model.next_pc ~size:4
        ~value:0x0010_0f93L;
      (match r.Minjie.Ref_model.step () with
      | Minjie.Ref_model.Committed c2 -> (
          match c2.Minjie.Ref_model.insn with
          | Insn.Op_imm (Insn.ADD, 31, 0, 1L) -> ()
          | i ->
              Alcotest.failf "%s REF executed stale code: %s"
                (Minjie.Ref_model.kind_name kind)
                (Insn.show i))
      | Minjie.Ref_model.Exited -> Alcotest.fail "exited after patch");
      Alcotest.(check int64)
        (Minjie.Ref_model.kind_name kind ^ " patched code executed")
        1L
        (r.Minjie.Ref_model.get_reg 31))
    both

(* --- block-cache invalidation on control flow -------------------------

   Taken jumps drop the NEMU REF's cursor, so their targets resolve
   through the block cache on the next step.  Indirect calls and
   self-modifying code must keep the commit stream identical to the
   ISS, and a patch_mem to a callee that is already compiled must be
   seen on its next call. *)

let test_ref_jump_lockstep () =
  lockstep "indirect calls" Test_engines.indirect_call_program;
  lockstep "self-modifying + fence.i" Test_engines.selfmod_fencei_program

let test_ref_patch_callee () =
  let prog = Test_engines.indirect_call_program in
  let a = make Minjie.Ref_model.Iss prog
  and b = make Minjie.Ref_model.Nemu prog in
  let step_both what =
    match (a.Minjie.Ref_model.step (), b.Minjie.Ref_model.step ()) with
    | Minjie.Ref_model.Committed ca, Minjie.Ref_model.Committed cb ->
        if ca <> cb then
          Alcotest.failf "%s: commits diverge\n  iss:  %s\n  nemu: %s" what
            (show_commit ca) (show_commit cb);
        true
    | Minjie.Ref_model.Exited, Minjie.Ref_model.Exited -> false
    | _ -> Alcotest.failf "%s: one REF exited early" what
  in
  (* enough steps that both callees are compiled *)
  for _ = 1 to 40 do
    ignore (step_both "warm-up")
  done;
  (* patch f1's first instruction (addi a0,a0,1 -> addi a0,a0,5)
     through the DRAV write path: the NEMU REF must not execute the
     stale compiled block *)
  let f1 = Riscv.Asm.label_addr prog "f1" in
  List.iter
    (fun (r : Minjie.Ref_model.t) ->
      r.Minjie.Ref_model.patch_mem ~paddr:f1 ~size:4 ~value:0x0055_0513L)
    [ a; b ];
  while step_both "after patch" do
    ()
  done;
  Alcotest.(check (option int))
    "exit codes agree after patching a compiled callee"
    (a.Minjie.Ref_model.exit_code ())
    (b.Minjie.Ref_model.exit_code ())

(* Same DUT, either REF: DiffTest must reach the same verdict with
   the same rule-fire profile and commit count. *)
let difftest_profile kind prog =
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  let dt = Minjie.Difftest.create ~ref_kind:kind ~prog soc in
  let status = Minjie.Workflow.drive ~max_cycles:30_000_000 dt in
  let code =
    match status with
    | Minjie.Difftest.Finished c -> c
    | Minjie.Difftest.Failed f ->
        Alcotest.failf "difftest under %s REF failed: %s (%s)"
          (Minjie.Ref_model.kind_name kind)
          f.Minjie.Rule.f_msg f.Minjie.Rule.f_rule
    | Minjie.Difftest.Running -> Alcotest.fail "difftest timed out"
  in
  (code, Minjie.Difftest.commits_checked dt, Minjie.Difftest.rule_fire_counts dt)

let test_difftest_equivalence () =
  List.iter
    (fun wname ->
      let w = Minjie.Campaign.find_workload wname in
      let prog = w.Workloads.Wl_common.program ~scale:1 in
      let code_i, commits_i, fires_i =
        difftest_profile Minjie.Ref_model.Iss prog
      and code_n, commits_n, fires_n =
        difftest_profile Minjie.Ref_model.Nemu prog
      in
      Alcotest.(check int) (wname ^ " exit code") code_i code_n;
      Alcotest.(check int) (wname ^ " commits checked") commits_i commits_n;
      Alcotest.(check (list (pair string int)))
        (wname ^ " rule fires") fires_i fires_n)
    [ "coremark_like"; "vm_kernel" ]

(* The campaign smoke subset must detect every fault with the
   expected rule under either REF backend. *)
let test_campaign_smoke_both_refs () =
  List.iter
    (fun fname ->
      let fault = Minjie.Fault.find fname in
      List.iter
        (fun kind ->
          let cell = Minjie.Campaign.run_cell ~ref_kind:kind ~fault ~seed:1 () in
          if not cell.Minjie.Campaign.c_ok then
            Alcotest.failf "%s under %s REF: %s" fname
              (Minjie.Ref_model.kind_name kind)
              (Minjie.Campaign.string_of_cell cell))
        both)
    [ "csr-mtvec-corrupt"; "rob-commit-reorder"; "lsu-sb-drop" ]

(* --- the state compare: one message, and no allocation on agreement -- *)

(* Distinct non-zero values for every compared field. *)
let pc0 = 0x80004000L
let x0 i = Int64.of_int ((i * 0x10001) + 7)
let f0 i = Int64.logor 0x4000000000000000L (Int64.of_int (i + 3))

(* The digest CSRs after priv, in digest order, with their setters. *)
let digest_csrs : (string * (Csr.t -> int64 -> unit)) list =
  [
    ("mstatus", fun c v -> c.Csr.reg_mstatus <- v);
    ("mepc", fun c v -> c.Csr.reg_mepc <- v);
    ("mcause", fun c v -> c.Csr.reg_mcause <- v);
    ("mtval", fun c v -> c.Csr.reg_mtval <- v);
    ("mtvec", fun c v -> c.Csr.reg_mtvec <- v);
    ("mscratch", fun c v -> c.Csr.reg_mscratch <- v);
    ("medeleg", fun c v -> c.Csr.reg_medeleg <- v);
    ("mideleg", fun c v -> c.Csr.reg_mideleg <- v);
    ("mie", fun c v -> c.Csr.reg_mie <- v);
    ("sepc", fun c v -> c.Csr.reg_sepc <- v);
    ("scause", fun c v -> c.Csr.reg_scause <- v);
    ("stval", fun c v -> c.Csr.reg_stval <- v);
    ("stvec", fun c v -> c.Csr.reg_stvec <- v);
    ("sscratch", fun c v -> c.Csr.reg_sscratch <- v);
    ("satp", fun c v -> c.Csr.reg_satp <- v);
  ]

let fill_csr (c : Csr.t) =
  c.Csr.priv <- Csr.S;
  List.iteri (fun k (_, set) -> set c (Int64.of_int (0x1000 + k))) digest_csrs

let fill_state (a : Arch_state.t) =
  a.Arch_state.pc <- pc0;
  for i = 1 to 31 do Arch_state.set_reg a i (x0 i) done;
  for i = 0 to 31 do Arch_state.set_freg a i (f0 i) done;
  fill_csr a.Arch_state.csr

(* Both REF backends holding the filled state. *)
let filled_refs () =
  let iss = Iss.Interp.create ~hartid:0 () in
  fill_state iss.Iss.Interp.st;
  let nemu = Nemu.Ref_core.create ~hartid:0 () in
  let m = nemu.Nemu.Ref_core.m in
  m.Nemu.Mach.pc <- pc0;
  for i = 1 to 31 do Nemu.Mach.set_reg m i (x0 i) done;
  for i = 0 to 31 do Bigarray.Array1.set m.Nemu.Mach.fregs i (f0 i) done;
  fill_csr m.Nemu.Mach.csr;
  [ Minjie.Ref_model.of_iss iss; Minjie.Ref_model.of_nemu nemu ]

(* Every compared field: how to perturb it in the DUT, and the message
   DiffTest reports for it, spelled out in the report format. *)
let perturbations : (string * (Arch_state.t -> unit) * string) list =
  let bump v = Int64.logxor v 0x100L in
  (( "pc",
     (fun a -> a.Arch_state.pc <- bump pc0),
     Printf.sprintf "pc: 0x%Lx vs 0x%Lx" (bump pc0) pc0 )
  :: List.init 31 (fun k ->
         let i = k + 1 in
         ( Printf.sprintf "x%d" i,
           (fun a -> Arch_state.set_reg a i (bump (x0 i))),
           Printf.sprintf "x%d(%s): 0x%Lx vs 0x%Lx" i (Insn.reg_name i)
             (bump (x0 i)) (x0 i) )))
  @ List.init 32 (fun i ->
        ( Printf.sprintf "f%d" i,
          (fun a -> Arch_state.set_freg a i (bump (f0 i))),
          Printf.sprintf "f%d: 0x%Lx vs 0x%Lx" i (bump (f0 i)) (f0 i) ))
  @ ( "priv",
      (fun a -> a.Arch_state.csr.Csr.priv <- Csr.M),
      "csr priv: 0x3 vs 0x1" )
    :: List.mapi
         (fun k (name, set) ->
           let v = Int64.of_int (0x1000 + k) in
           ( name,
             (fun a -> set a.Arch_state.csr (bump v)),
             Printf.sprintf "csr %s: 0x%Lx vs 0x%Lx" name (bump v) v ))
         digest_csrs

let test_state_compare_messages () =
  let refs = filled_refs () in
  let dut = Arch_state.create ~hartid:0 () in
  fill_state dut;
  List.iter
    (fun (r : Minjie.Ref_model.t) ->
      Alcotest.(check (option string))
        (Minjie.Ref_model.kind_name r.kind ^ " agrees")
        None (r.diff_against dut))
    refs;
  Alcotest.(check int) "every field perturbed" (1 + 31 + 32 + 1 + 15)
    (List.length perturbations);
  List.iter
    (fun (field, perturb, expected) ->
      let dut = Arch_state.create ~hartid:0 () in
      fill_state dut;
      perturb dut;
      List.iter
        (fun (r : Minjie.Ref_model.t) ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s: %s" (Minjie.Ref_model.kind_name r.kind) field)
            (Some expected) (r.diff_against dut))
        refs;
      (* an ISS-style state-to-state diff reads the same *)
      let ref_st = Arch_state.create ~hartid:0 () in
      fill_state ref_st;
      Alcotest.(check (option string)) ("Arch_state.diff: " ^ field)
        (Some expected) (Arch_state.diff dut ref_st))
    perturbations

(* The compare runs on every hart every cycle: on agreement it must
   allocate nothing under either REF. *)
let test_state_compare_allocates_nothing () =
  let dut = Arch_state.create ~hartid:0 () in
  fill_state dut;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let empty = words (fun () -> ()) in
  List.iter
    (fun (r : Minjie.Ref_model.t) ->
      let w =
        words (fun () ->
            for _ = 1 to 1000 do
              ignore (Sys.opaque_identity (r.diff_against dut))
            done)
      in
      Alcotest.(check (float 0.))
        (Minjie.Ref_model.kind_name r.kind ^ " minor words for 1000 compares")
        0. (w -. empty))
    (filled_refs ())

let tests =
  [
    Alcotest.test_case "commit-stream lockstep over fuzz programs" `Slow
      test_lockstep_fuzz;
    Alcotest.test_case "commit-stream lockstep over workloads" `Slow
      test_lockstep_workloads;
    Alcotest.test_case "control-plane parity" `Quick test_control_plane;
    Alcotest.test_case "patch_mem invalidates compiled code" `Quick
      test_patch_mem_code;
    Alcotest.test_case "lockstep on indirect calls and self-modifying code"
      `Quick test_ref_jump_lockstep;
    Alcotest.test_case "patch_mem invalidates a compiled callee" `Quick
      test_ref_patch_callee;
    Alcotest.test_case "difftest verdicts and rule fires agree" `Slow
      test_difftest_equivalence;
    Alcotest.test_case "campaign smoke subset under both REFs" `Slow
      test_campaign_smoke_both_refs;
    Alcotest.test_case "state compare: one message format, both REFs" `Quick
      test_state_compare_messages;
    Alcotest.test_case "state compare allocates nothing on agreement" `Quick
      test_state_compare_allocates_nothing;
  ]
