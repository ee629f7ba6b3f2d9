(* Quickstart: write a RISC-V program with the assembler DSL, run it
   on NEMU, on the reference ISS, and on the cycle-level XiangShan
   model under DiffTest verification.

     dune exec examples/quickstart.exe *)

open Riscv

(* A small program: sum of squares 1..20, exits with the low byte. *)
let program =
  let ( @. ) = List.append in
  Asm.assemble
    Asm.(
      [
        label "start";
        li a0 0L (* accumulator *);
        li t0 1L (* i *);
        li t1 21L;
        label "loop";
        i (Insn.Mul (MUL, t2, t0, t0));
        i (Insn.Op (ADD, a0, a0, t2));
        i (Insn.Op_imm (ADD, t0, t0, 1L));
        blt t0 t1 "loop";
      ]
      @. Workloads.Wl_common.exit_with a0)

let () =
  Printf.printf "program: %d instructions at 0x%Lx\n\n"
    (Array.length program.Asm.words)
    program.Asm.base;

  (* 1. the fast way: NEMU *)
  let m = Nemu.Mach.create () in
  Nemu.Mach.load_program m program;
  let engine = Nemu.Fast.create m in
  let n = Nemu.Fast.run engine ~max_insns:1_000_000 in
  Printf.printf "NEMU: retired %d instructions, exit code %s\n" n
    (match Nemu.Mach.exit_code m with
    | Some c -> string_of_int c
    | None -> "none");

  (* 2. the reference model *)
  let iss = Iss.Interp.create ~hartid:0 () in
  Iss.Interp.load_program iss program;
  let n = Iss.Interp.run ~max_insns:1_000_000 iss in
  Printf.printf "ISS:  retired %d instructions, exit code %s\n" n
    (match Iss.Interp.exit_code iss with
    | Some c -> string_of_int c
    | None -> "none");

  (* 3. the cycle-level XiangShan model, co-simulated with the REF
     under the standard diff-rules *)
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc program;
  let dt = Minjie.Difftest.create ~prog:program soc in
  (match Minjie.Difftest.run ~max_cycles:1_000_000 dt with
  | Minjie.Difftest.Finished code ->
      let core = soc.Xiangshan.Soc.cores.(0) in
      Printf.printf
        "DUT:  verified by DiffTest; exit code %d, %d instructions in %d \
         cycles (IPC %.2f)\n"
        code core.Xiangshan.Core.perf.Xiangshan.Core.p_instrs
        core.Xiangshan.Core.perf.Xiangshan.Core.p_cycles
        (Xiangshan.Core.ipc core)
  | Minjie.Difftest.Failed f ->
      Printf.printf "DUT: DiffTest FAILED (%s): %s\n" f.Minjie.Rule.f_rule
        f.Minjie.Rule.f_msg
  | Minjie.Difftest.Running -> Printf.printf "DUT: timed out\n");

  (* 4. the same co-simulation with the pluggable REF switched to
     NEMU's block-compiled non-autonomous mode -- the paper's fast
     REF.  Same rules, same verdict, faster REF side.  (On the command
     line, `minjie run` takes it from MINJIE_REF=nemu.) *)
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc program;
  let dt =
    Minjie.Difftest.create ~ref_kind:Minjie.Ref_model.Nemu ~prog:program soc
  in
  (match Minjie.Difftest.run ~max_cycles:1_000_000 dt with
  | Minjie.Difftest.Finished code ->
      Printf.printf
        "DUT:  verified again with the %s REF; exit code %d, %d commits \
         checked\n"
        (Minjie.Ref_model.kind_name (Minjie.Difftest.ref_kind dt))
        code
        (Minjie.Difftest.commits_checked dt)
  | Minjie.Difftest.Failed f ->
      Printf.printf "DUT: DiffTest FAILED under NEMU REF (%s): %s\n"
        f.Minjie.Rule.f_rule f.Minjie.Rule.f_msg
  | Minjie.Difftest.Running -> Printf.printf "DUT: timed out\n");

  (* expected: sum_{1..20} i^2 = 2870; 2870 land 0xff = 54 *)
  Printf.printf "\nexpected exit code: %d\n" (2870 land 0xFF)
