(* The out-of-order core: architectural agreement with the ISS on all
   workloads and configurations, plus structural behaviour (fusion,
   move elimination, branch prediction learning, Figure 15 counters). *)

let dut_run cfg prog ~max_cycles =
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  let _ = Xiangshan.Soc.run ~max_cycles soc in
  soc

let iss_exit prog =
  let m = Iss.Interp.create ~hartid:0 () in
  Iss.Interp.load_program m prog;
  let _ = Iss.Interp.run ~max_insns:200_000_000 m in
  Iss.Interp.exit_code m

let agreement_case cfg (w : Workloads.Wl_common.t) =
  Alcotest.test_case
    (Printf.sprintf "%s on %s" w.wl_name cfg.Xiangshan.Config.cfg_name)
    `Slow
    (fun () ->
      let prog = w.program ~scale:w.small in
      let soc = dut_run cfg prog ~max_cycles:50_000_000 in
      Alcotest.(check (option int))
        "exit code" (iss_exit prog)
        (Xiangshan.Soc.exit_code soc);
      let core = soc.Xiangshan.Soc.cores.(0) in
      Alcotest.(check bool) "ipc sane" true
        (Xiangshan.Core.ipc core > 0.05 && Xiangshan.Core.ipc core < 6.0))

let test_fusion_and_move_elim () =
  let prog = (Workloads.Suite.find "lbm_like").program ~scale:1 in
  let soc = dut_run Xiangshan.Config.nh_single prog ~max_cycles:20_000_000 in
  let perf = soc.Xiangshan.Soc.cores.(0).Xiangshan.Core.perf in
  Alcotest.(check bool) "fused some pairs" true
    (perf.Xiangshan.Core.p_fused > 0);
  Alcotest.(check bool) "eliminated some moves" true
    (perf.Xiangshan.Core.p_moves_eliminated > 0);
  (* YQH has both features off *)
  let soc' = dut_run Xiangshan.Config.yqh prog ~max_cycles:50_000_000 in
  let perf' = soc'.Xiangshan.Soc.cores.(0).Xiangshan.Core.perf in
  Alcotest.(check int) "yqh no fusion" 0 perf'.Xiangshan.Core.p_fused;
  Alcotest.(check int) "yqh no move elim" 0
    perf'.Xiangshan.Core.p_moves_eliminated

let test_bpu_learns () =
  (* sjeng-like is hard to predict; a regular loop is easy *)
  let easy = (Workloads.Suite.find "stream_like").program ~scale:1 in
  let hard = (Workloads.Suite.find "sjeng_like").program ~scale:2 in
  let mpki prog =
    let soc = dut_run Xiangshan.Config.yqh prog ~max_cycles:50_000_000 in
    let core = soc.Xiangshan.Soc.cores.(0) in
    Xiangshan.Bpu.mpki core.Xiangshan.Core.bpu
      ~instructions:core.Xiangshan.Core.perf.Xiangshan.Core.p_instrs
  in
  let e = mpki easy and h = mpki hard in
  Alcotest.(check bool)
    (Printf.sprintf "stream MPKI %.2f < 3" e)
    true (e < 3.0);
  Alcotest.(check bool)
    (Printf.sprintf "sjeng MPKI %.2f > 3 (PUBS paper threshold)" h)
    true (h > 3.0)

let test_ready_histogram () =
  let prog = (Workloads.Suite.find "sjeng_like").program ~scale:1 in
  let soc = dut_run Xiangshan.Config.yqh prog ~max_cycles:20_000_000 in
  let perf = soc.Xiangshan.Soc.cores.(0).Xiangshan.Core.perf in
  let total = Array.fold_left ( + ) 0 perf.Xiangshan.Core.ready_hist in
  Alcotest.(check bool) "histogram populated" true (total > 1000);
  Alcotest.(check bool) "some cycles have >2 ready" true
    (Array.fold_left ( + ) 0
       (Array.sub perf.Xiangshan.Core.ready_hist 3 14)
    > 0)

let test_pubs_policy_runs () =
  let prog = (Workloads.Suite.find "sjeng_like").program ~scale:1 in
  let cfg =
    { Xiangshan.Config.yqh with Xiangshan.Config.issue_policy = Xiangshan.Config.Pubs }
  in
  let soc = dut_run cfg prog ~max_cycles:20_000_000 in
  Alcotest.(check (option int)) "pubs config correct" (iss_exit prog)
    (Xiangshan.Soc.exit_code soc);
  let perf = soc.Xiangshan.Soc.cores.(0).Xiangshan.Core.perf in
  Alcotest.(check bool) "high-priority uops marked" true
    (perf.Xiangshan.Core.p_hi_prio > 0)

let test_vm_kernel_on_dut () =
  let prog = Workloads.Vm_kernel.program ~scale:1 () in
  let soc = dut_run Xiangshan.Config.yqh prog ~max_cycles:50_000_000 in
  Alcotest.(check (option int)) "same exit as REF" (iss_exit prog)
    (Xiangshan.Soc.exit_code soc);
  let core = soc.Xiangshan.Soc.cores.(0) in
  (* the DUT must have taken page faults (lazy allocation) *)
  Alcotest.(check bool) "page faults occurred" true
    (core.Xiangshan.Core.perf.Xiangshan.Core.p_traps > 10);
  (* and performed hardware page walks *)
  Alcotest.(check bool) "walks occurred" true
    (core.Xiangshan.Core.tlb.Xiangshan.Tlb.walks > 0)

let test_smp_runs () =
  let prog = Workloads.Smp.spinlock ~scale:2 in
  let soc = dut_run Xiangshan.Config.nh prog ~max_cycles:50_000_000 in
  (* 2 harts x 100 increments = 200 *)
  Alcotest.(check (option int)) "SMP counter" (Some 200)
    (Xiangshan.Soc.exit_code soc)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table2_printout () =
  let s = Xiangshan.Config.table2 () in
  Alcotest.(check bool) "mentions ROB sizes" true
    (contains s "192/64/48" && contains s "256/80/64")

(* Each interrupt handler stores to the CLINT's mtimecmp.  A store to
   MMIO is written through at commit, bypassing the store buffer; commit
   must still take it out of the SQ, or leaked entries fill the SQ and
   dispatch stalls for good (this run then never exits). *)
let test_mmio_stores_leave_the_sq () =
  let prog = Workloads.Timer.program ~scale:24 in
  let soc = dut_run Xiangshan.Config.yqh prog ~max_cycles:1_000_000 in
  Alcotest.(check (option int)) "exit code: the interrupt count" (Some 72)
    (Xiangshan.Soc.exit_code soc);
  Alcotest.(check int) "SQ empty at exit" 0
    (Xiangshan.Lsu.sq_occupancy soc.Xiangshan.Soc.cores.(0).Xiangshan.Core.lsu)

let tests =
  List.map (agreement_case Xiangshan.Config.yqh) Workloads.Suite.all
  @ List.map (agreement_case Xiangshan.Config.nh_single) Workloads.Suite.all
  @ [
      Alcotest.test_case "fusion and move elimination" `Slow
        test_fusion_and_move_elim;
      Alcotest.test_case "branch predictor learns" `Slow test_bpu_learns;
      Alcotest.test_case "ready-instruction histogram (Fig 15)" `Quick
        test_ready_histogram;
      Alcotest.test_case "PUBS issue policy" `Quick test_pubs_policy_runs;
      Alcotest.test_case "vm kernel on the DUT" `Slow test_vm_kernel_on_dut;
      Alcotest.test_case "dual-core SMP" `Slow test_smp_runs;
      Alcotest.test_case "Table II printout" `Quick test_table2_printout;
      Alcotest.test_case "MMIO stores leave the SQ at commit" `Quick
        test_mmio_stores_leave_the_sq;
    ]
