(* MINJIE / XiangShan reproduction test suite. *)
let () =
  Alcotest.run "minjie"
    [
      ("insn", Test_insn.tests);
      ("memory", Test_memory.tests);
      ("cow", Test_cow.tests);
      ("softfloat", Test_softfloat.tests);
      ("alu", Test_alu.tests);
      ("csr-trap", Test_csr_trap.tests);
      ("isa-rules", Test_isa_rules.tests);
      ("iss", Test_iss.tests);
      ("engines", Test_engines.tests);
      ("softmem", Test_softmem.tests);
      ("xiangshan", Test_xiangshan.tests);
      ("difftest", Test_difftest.tests);
      ("ref-model", Test_ref_model.tests);
      ("fault", Test_fault.tests);
      ("pool", Test_pool.tests);
      ("grid", Test_grid.tests);
      ("journal", Test_journal.tests);
      ("supervisor", Test_supervisor.tests);
      ("chaos", Test_chaos.tests);
      ("lightsss", Test_lightsss.tests);
      ("checkpoint", Test_checkpoint.tests);
      ("archdb", Test_archdb.tests);
      ("bpu", Test_bpu.tests);
      ("tlb", Test_tlb.tests);
      ("backend", Test_backend.tests);
      ("predecode", Test_predecode.tests);
      ("determinism", Test_determinism.tests);
      ("golden", Test_golden.tests);
      ("commit-pins", Test_commit_pins.tests);
      ("fuzz", Test_fuzz.tests);
      ("fuzz-cov", Test_fuzz_cov.tests);
      ("workloads", Test_workloads.tests);
      ("twophase", Test_twophase.tests);
      ("perf", Test_perf.tests);
      ("serve", Test_serve.tests);
    ]
