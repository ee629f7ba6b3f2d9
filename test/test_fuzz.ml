(* Constrained-random differential testing: generated programs must
   produce identical architectural outcomes on the ISS and every
   interpreter engine, and pass DiffTest on the cycle-level core --
   the workflow the paper drives with riscv-dv-style generators. *)

(* The sweep is deterministic by default; MINJIE_FUZZ_SEED shifts the
   whole seed window so CI (or a debugging session) can explore a
   different region of the generator space without editing the test. *)
let base_seed =
  match Sys.getenv_opt "MINJIE_FUZZ_SEED" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> invalid_arg "MINJIE_FUZZ_SEED must be an integer")
  | None -> 0

let iss_final prog =
  let m = Iss.Interp.create ~hartid:0 () in
  Iss.Interp.load_program m prog;
  let _ = Iss.Interp.run ~max_insns:5_000_000 m in
  (Iss.Interp.exit_code m, Array.copy m.Iss.Interp.st.Riscv.Arch_state.regs)

let test_fuzz_engines () =
  for s = 1 to 25 do
    let seed = base_seed + s in
    let prog = Workloads.Testgen.program ~seed () in
    let code_ref, regs_ref = iss_final prog in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d terminates" seed)
      true (code_ref <> None);
    List.iter
      (fun kind ->
        let m = Nemu.Mach.create () in
        Nemu.Mach.load_program m prog;
        (match kind with
        | Nemu.Engine.Nemu ->
            ignore (Nemu.Fast.run (Nemu.Fast.create m) ~max_insns:5_000_000)
        | Nemu.Engine.Spike_like ->
            ignore (Nemu.Spike_like.run m ~max_insns:5_000_000)
        | Nemu.Engine.Qemu_tci_like ->
            ignore (Nemu.Qemu_tci_like.run m ~max_insns:5_000_000)
        | Nemu.Engine.Dromajo_like ->
            ignore (Nemu.Dromajo_like.run m ~max_insns:5_000_000));
        Alcotest.(check (option int))
          (Printf.sprintf "seed %d %s exit" seed (Nemu.Engine.name kind))
          code_ref (Nemu.Mach.exit_code m);
        for x = 1 to 31 do
          if Nemu.Mach.get_reg m x <> regs_ref.(x) then
            Alcotest.failf "seed %d %s: x%d = 0x%Lx, ISS has 0x%Lx" seed
              (Nemu.Engine.name kind) x (Nemu.Mach.get_reg m x) regs_ref.(x)
        done)
      Nemu.Engine.all
  done

let test_fuzz_difftest () =
  (* the cycle-level core under full DiffTest verification *)
  List.iter
    (fun (s, cfg) ->
      let seed = base_seed + s in
      let prog = Workloads.Testgen.program ~seed () in
      let soc = Xiangshan.Soc.create cfg in
      Xiangshan.Soc.load_program soc prog;
      let dt = Minjie.Difftest.create ~prog soc in
      match Minjie.Workflow.drive ~max_cycles:5_000_000 dt with
      | Minjie.Difftest.Finished _ -> ()
      | Minjie.Difftest.Failed f ->
          Alcotest.failf "seed %d on %s: %s at pc=0x%Lx (%s)" seed
            cfg.Xiangshan.Config.cfg_name f.Minjie.Rule.f_msg
            f.Minjie.Rule.f_pc f.Minjie.Rule.f_rule
      | Minjie.Difftest.Running -> Alcotest.failf "seed %d: timeout" seed)
    [
      (101, Xiangshan.Config.yqh);
      (102, Xiangshan.Config.yqh);
      (103, Xiangshan.Config.nh_single);
      (104, Xiangshan.Config.nh_single);
      (105, Xiangshan.Config.yqh);
      (106, Xiangshan.Config.nh_single);
    ]

let test_generator_determinism () =
  let a = Workloads.Testgen.program ~seed:7 () in
  let b = Workloads.Testgen.program ~seed:7 () in
  Alcotest.(check bool) "same words" true (a.Riscv.Asm.words = b.Riscv.Asm.words);
  let c = Workloads.Testgen.program ~seed:8 () in
  Alcotest.(check bool) "different seed differs" true
    (a.Riscv.Asm.words <> c.Riscv.Asm.words)

let tests =
  [
    Alcotest.test_case "random programs agree across engines" `Slow
      test_fuzz_engines;
    Alcotest.test_case "random programs pass DiffTest" `Slow
      test_fuzz_difftest;
    Alcotest.test_case "generator determinism" `Quick
      test_generator_determinism;
  ]
