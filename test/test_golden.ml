(* Golden DUT fingerprints: the cycle model pinned to fixed numbers.

   Each case runs a raw [Soc.run] (no DiffTest, no REF) on a short
   kernel and compares the cycle count and an MD5 of the merged
   counter snapshot against values recorded from an earlier build.  A
   refactor of a cycle-model data structure (caches, predictors,
   queues) must leave every case unchanged; the determinism tests
   elsewhere only compare two runs of the same build, so they cannot
   see such a drift.  A change that is meant to move timing updates
   these values and says so. *)

let fingerprint (counters : (string * int) list) =
  counters
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let golden name cfg prog ~cycles ~exit_code ~digest =
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  let c = Xiangshan.Soc.run ~max_cycles:2_000_000 soc in
  Alcotest.(check (option int))
    (name ^ ": exit code") (Some exit_code)
    (Xiangshan.Soc.exit_code soc);
  Alcotest.(check int) (name ^ ": cycles") cycles c;
  Alcotest.(check string) (name ^ ": counter digest") digest
    (fingerprint (Minjie.Workflow.soc_counters soc))

let cases =
  [
    ( "coremark_like on YQH",
      Xiangshan.Config.yqh,
      (fun () -> (Workloads.Suite.find "coremark_like").program ~scale:1),
      24520,
      199,
      "848c62d38c5d22d9d57ae1a464f44664" );
    ( "smp_lrsc on NH",
      Xiangshan.Config.nh,
      (fun () -> Workloads.Smp.lrsc_contend ~scale:2),
      6057,
      160,
      "c75c43a7e2ce1c33c59987b7c47720b7" );
    ( "vm_kernel on NH",
      Xiangshan.Config.nh,
      (fun () -> Workloads.Vm_kernel.program ~scale:2 ()),
      22858,
      255,
      "46e7ca994e78590253f0fca51680e7ec" );
  ]

let tests =
  List.map
    (fun (name, cfg, prog, cycles, exit_code, digest) ->
      Alcotest.test_case name `Quick (fun () ->
          golden name cfg (prog ()) ~cycles ~exit_code ~digest))
    cases
