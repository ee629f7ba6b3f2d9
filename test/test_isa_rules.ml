(* One owner per ISA rule: five small M-mode programs, each reaching a
   rule the executors used to copy, must exit with one code on the ISS,
   the four interpreter engines and the raw DUT (the interpreters
   retiring as many instructions as the ISS), and must finish with
   that code under DiffTest with either REF.  Each program's trap
   handler exits with mcause; a program that does not trap exits with
   100.  A rule-level case checks that page-fault-forcing forces page
   faults only. *)

open Riscv

let no_trap = 100

let handler_and_exit =
  Asm.[ li a0 (Int64.of_int no_trap) ]
  @ Workloads.Wl_common.exit_with Asm.a0
  @ Asm.[ label "trap"; i (Insn.Csr (CSRRS, a0, 0, Csr.mcause)) ]
  @ Workloads.Wl_common.exit_with Asm.a0

let program body =
  Asm.assemble
    (Asm.[ la t0 "trap"; i (Insn.Csr (CSRRW, 0, t0, Csr.mtvec)) ]
    @ body @ handler_and_exit)

let mtime = Int64.add Platform.clint_base Platform.clint_mtime_offset

let mtimecmp = Int64.add Platform.clint_base Platform.clint_mtimecmp_offset

(* (name, program, exit code) *)
let programs =
  [
    ( "sfence.vma in U-mode",
      (fun () ->
        program
          Asm.
            [
              la t0 "user";
              i (Insn.Csr (CSRRW, 0, t0, Csr.mepc));
              (* mstatus.MPP = U *)
              li t0 0x1800L;
              i (Insn.Csr (CSRRC, 0, t0, Csr.mstatus));
              i Insn.Mret;
              label "user";
              i (Insn.Sfence_vma (0, 0));
            ]),
      Trap.exc_code Trap.Illegal_instruction );
    ( "lr.d from CLINT mtime",
      (fun () ->
        program Asm.[ li t0 mtime; i (Insn.Lr (Width_d, a1, t0)) ]),
      Trap.exc_code Trap.Load_access );
    ( "amoadd.d on CLINT mtimecmp",
      (fun () ->
        program
          Asm.
            [
              li t0 mtimecmp;
              li t1 1L;
              i (Insn.Amo (AMOADD, Width_d, a1, t0, t1));
            ]),
      Trap.exc_code Trap.Store_access );
    ( "fld from CLINT mtime",
      (fun () -> program Asm.[ li t0 mtime; i (Insn.Fld (ft0, t0, 0L)) ]),
      no_trap );
    ( "jalr into the CLINT",
      (fun () ->
        program Asm.[ li t0 Platform.clint_base; i (Insn.Jalr (0, t0, 0L)) ]),
      Trap.exc_code Trap.Fetch_access );
  ]

let max_insns = 10_000

(* (exit code, instructions retired) *)
let iss_run prog =
  let m = Iss.Interp.create ~hartid:0 () in
  Iss.Interp.load_program m prog;
  let n = Iss.Interp.run ~max_insns m in
  (Iss.Interp.exit_code m, n)

let engine_run kind prog =
  let m = Nemu.Mach.create () in
  Nemu.Mach.load_program m prog;
  let n =
    match kind with
    | Nemu.Engine.Nemu -> Nemu.Fast.run (Nemu.Fast.create m) ~max_insns
    | Nemu.Engine.Spike_like -> Nemu.Spike_like.run m ~max_insns
    | Nemu.Engine.Qemu_tci_like -> Nemu.Qemu_tci_like.run m ~max_insns
    | Nemu.Engine.Dromajo_like -> Nemu.Dromajo_like.run m ~max_insns
  in
  (Nemu.Mach.exit_code m, n)

let dut_exit prog =
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  ignore (Xiangshan.Soc.run ~max_cycles:1_000_000 soc);
  Xiangshan.Soc.exit_code soc

let executors_case (name, prog, code) =
  Alcotest.test_case (name ^ ": one exit code on every executor") `Quick
    (fun () ->
      let prog = prog () in
      let check who got = Alcotest.(check (option int)) who (Some code) got in
      let iss_code, iss_insns = iss_run prog in
      check "ISS" iss_code;
      List.iter
        (fun kind ->
          let who = Nemu.Engine.name kind in
          let got, insns = engine_run kind prog in
          check who got;
          (* a trapping instruction retires on every interpreter *)
          Alcotest.(check int) (who ^ " instret") iss_insns insns)
        Nemu.Engine.all;
      check "DUT (YQH)" (dut_exit prog))

let difftest_case (name, prog, code) =
  Alcotest.test_case (name ^ ": DiffTest finishes under both REFs") `Quick
    (fun () ->
      List.iter
        (fun kind ->
          let prog = prog () in
          let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
          Xiangshan.Soc.load_program soc prog;
          let dt = Minjie.Difftest.create ~ref_kind:kind ~prog soc in
          let who = Minjie.Ref_model.kind_name kind ^ " REF" in
          match Minjie.Workflow.drive ~max_cycles:1_000_000 dt with
          | Minjie.Difftest.Finished c -> Alcotest.(check int) who code c
          | Minjie.Difftest.Failed f ->
              Alcotest.failf "%s: %s" who (Minjie.Rule.string_of_failure f)
          | Minjie.Difftest.Running -> Alcotest.failf "%s: timed out" who)
        [ Minjie.Ref_model.Iss; Minjie.Ref_model.Nemu ])

(* A DUT probe trapping with [exc]: does page-fault-forcing fire, and
   does it force the REF? *)
let forcing_fires exc =
  let prog = program [] in
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  let dt = Minjie.Difftest.create ~prog soc in
  let forced = ref false in
  let r = (Minjie.Difftest.refs dt).(0) in
  let ctx =
    {
      Minjie.Rule.refs =
        [|
          {
            r with
            Minjie.Ref_model.force_exception = (fun _ _ -> forced := true);
          };
        |];
      global_mem = Minjie.Global_memory.create ();
      soc;
      failure = None;
      forced_history = Hashtbl.create 1;
    }
  in
  let p = Xiangshan.Probe.make_slot ~hartid:0 in
  p.Xiangshan.Probe.p_trap <- Some (exc, 0L);
  let rule = Minjie.Rules.page_fault_forcing () in
  let fired =
    match rule.Minjie.Rule.pre with
    | Some pre -> pre ctx ~hart:0 p
    | None -> false
  in
  (fired, !forced)

let test_forcing_page_faults_only () =
  List.iter
    (fun exc ->
      Alcotest.(check (pair bool bool))
        (Trap.show_exc exc ^ " is forced")
        (true, true) (forcing_fires exc))
    [ Trap.Fetch_page_fault; Trap.Load_page_fault; Trap.Store_page_fault ];
  List.iter
    (fun exc ->
      Alcotest.(check (pair bool bool))
        (Trap.show_exc exc ^ " is the REF's own")
        (false, false) (forcing_fires exc))
    [ Trap.Illegal_instruction; Trap.Load_access; Trap.Ecall_from_m ]

let tests =
  List.map executors_case programs
  @ List.map difftest_case programs
  @ [
      Alcotest.test_case "page-fault-forcing forces page faults only" `Quick
        test_forcing_page_faults_only;
    ]
