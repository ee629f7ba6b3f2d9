(* Two-phase cycle model (DESIGN.md "Two-phase cycle semantics").

   Phase 1 must read only the start-of-cycle snapshot, so stepping the
   unit planners in ANY order has to be indistinguishable: identical
   DiffTest verdicts, identical commit counts, identical counter
   snapshots, identical fault-campaign cells.  These tests pin that
   property with seeded permutations across both REF backends, and pin
   the phase-2 arbitration rules (snapshot claims never oversubscribe
   a structure; flushes cancel or invalidate younger same-cycle plans;
   fault hooks at the effect boundary degrade plans to stalls, never
   crashes). *)

module Core = Xiangshan.Core
module Soc = Xiangshan.Soc

let shuffles = [ Core.Shuffle 1; Core.Shuffle 42; Core.Shuffle 1337 ]

let order_name = function
  | Core.Default_order -> "default"
  | Core.Shuffle s -> Printf.sprintf "shuffle:%d" s

let set_order soc o =
  Array.iter (fun c -> Core.set_phase_order c o) soc.Soc.cores

(* Run [wl] under DiffTest with a given phase order and REF backend;
   return every observable the permutation identity must cover. *)
let observe ?(cfg = Xiangshan.Config.yqh) ~ref_kind ~order wl =
  let prog = (Workloads.Suite.find wl).program ~scale:1 in
  let soc = Soc.create cfg in
  Soc.load_program soc prog;
  set_order soc order;
  let dt = Minjie.Difftest.create ~ref_kind ~prog soc in
  let status =
    match Minjie.Workflow.drive ~max_cycles:20_000_000 dt with
    | Minjie.Difftest.Running -> "running"
    | Minjie.Difftest.Finished code -> Printf.sprintf "finished:%d" code
    | Minjie.Difftest.Failed f -> "failed:" ^ Minjie.Rule.string_of_failure f
  in
  (status, Minjie.Difftest.commits_checked dt, Soc.counter_snapshot soc ~hartid:0)

let check_identity ~what baseline other =
  let sb, cb, kb = baseline and so, co, ko = other in
  Alcotest.(check string) (what ^ " verdict") sb so;
  Alcotest.(check int) (what ^ " commits checked") cb co;
  Alcotest.(check (list (pair string int))) (what ^ " counter snapshot") kb ko

let test_permutations_iss () =
  List.iter
    (fun wl ->
      let baseline =
        observe ~ref_kind:Minjie.Ref_model.Iss ~order:Core.Default_order wl
      in
      List.iter
        (fun order ->
          check_identity
            ~what:(Printf.sprintf "%s iss %s" wl (order_name order))
            baseline
            (observe ~ref_kind:Minjie.Ref_model.Iss ~order wl))
        shuffles)
    [ "coremark_like"; "stream_like" ]

let test_permutations_nemu () =
  let wl = "coremark_like" in
  let baseline =
    observe ~ref_kind:Minjie.Ref_model.Nemu ~order:Core.Default_order wl
  in
  List.iter
    (fun order ->
      check_identity
        ~what:(Printf.sprintf "%s nemu %s" wl (order_name order))
        baseline
        (observe ~ref_kind:Minjie.Ref_model.Nemu ~order wl))
    shuffles

(* Redirect-vs-commit arbitration: commit applies first, so a trap or
   serialising flush squashes the uop whose same-cycle redirect would
   otherwise fire; the issue-side revalidation must suppress it.  The
   VM kernel takes page faults continuously (commit-side flushes) on
   top of ordinary mispredict redirects, so every arbitration row is
   exercised -- under permutation, the outcome must not move. *)
let test_redirect_vs_commit_under_permutation () =
  let run order =
    let prog = Workloads.Vm_kernel.program ~scale:1 () in
    let soc = Soc.create Xiangshan.Config.yqh in
    Soc.load_program soc prog;
    set_order soc order;
    let cycles = Soc.run ~max_cycles:50_000_000 soc in
    let core = soc.Soc.cores.(0) in
    Alcotest.(check bool) "traps exercised" true
      (core.Core.perf.Core.p_traps > 10);
    Alcotest.(check bool) "flushes exercised" true
      (core.Core.perf.Core.p_flushes > 10);
    (cycles, Soc.exit_code soc, Core.counter_snapshot core)
  in
  let cd, ed, kd = run Core.Default_order in
  List.iter
    (fun order ->
      let cs, es, ks = run order in
      let what = "vm_kernel " ^ order_name order in
      Alcotest.(check int) (what ^ " cycles") cd cs;
      Alcotest.(check (option int)) (what ^ " exit") ed es;
      Alcotest.(check (list (pair string int))) (what ^ " counters") kd ks)
    shuffles

let iss_exit prog =
  let m = Iss.Interp.create ~hartid:0 () in
  Iss.Interp.load_program m prog;
  ignore (Iss.Interp.run ~max_insns:200_000_000 m);
  Iss.Interp.exit_code m

let counter soc name =
  List.assoc name (Soc.counter_snapshot soc ~hartid:0)

(* Drive a SoC cycle by cycle asserting, every cycle, that the
   dispatch plan never oversubscribed a structure: phase-1 claims come
   from the start-of-cycle snapshot and resources are only freed
   during apply, so occupancy can never exceed capacity.  Also checks
   that the IQ, LQ and SQ arrays stay age-ordered with every free slot
   reset to -1, that every IQ and LQ entry names the uop its ROB row
   holds, and that apply reset the IQ and dispatch plan buffers. *)
let run_with_occupancy_invariant cfg prog ~order =
  let soc = Soc.create cfg in
  Soc.load_program soc prog;
  set_order soc order;
  let core = soc.Soc.cores.(0) in
  let steps = ref 0 in
  while (not (Soc.exited soc)) && !steps < 50_000_000 do
    Soc.tick soc;
    incr steps;
    let le what limit v =
      if v > limit then
        Alcotest.failf "cycle %d: %s = %d > %d" core.Core.now what v limit
    in
    le "rob" cfg.Xiangshan.Config.rob_size (Xiangshan.Rob.count core.Core.rob);
    Array.iter
      (fun iq ->
        le "iq" (Xiangshan.Iq.capacity iq) (Xiangshan.Iq.occupancy iq))
      core.Core.iqs;
    let lsu = core.Core.lsu in
    le "lq" cfg.Xiangshan.Config.lq_size (Xiangshan.Lsu.lq_occupancy lsu);
    le "sq" cfg.Xiangshan.Config.sq_size (Xiangshan.Lsu.sq_occupancy lsu);
    le "sb" cfg.Xiangshan.Config.store_buffer_size
      (Xiangshan.Lsu.sb_occupancy lsu);
    let uops = core.Core.rob.Xiangshan.Rob.uops in
    let check_queue ?(live = true) what (q : int array) n =
      for i = 0 to Array.length q - 1 do
        let seq = q.(i) in
        if i < n && (seq < 0 || (i > 0 && seq <= q.(i - 1)))
        then Alcotest.failf "cycle %d: %s slot %d out of age order" core.Core.now what i;
        (* IQ and LQ entries leave with their uops: each names the uop
           its ROB row holds *)
        if i < n && live && not (Xiangshan.Uop.live uops seq) then
          Alcotest.failf "cycle %d: %s slot %d names a reused row"
            core.Core.now what i;
        if i >= n && seq <> -1 then
          Alcotest.failf "cycle %d: %s free slot %d holds a uop" core.Core.now what i
      done
    in
    check_queue "lq" lsu.Xiangshan.Lsu.lq (Xiangshan.Lsu.lq_occupancy lsu);
    check_queue ~live:false "sq" lsu.Xiangshan.Lsu.sq
      (Xiangshan.Lsu.sq_occupancy lsu);
    Array.iter
      (fun iq ->
        check_queue "iq" iq.Xiangshan.Iq.slots (Xiangshan.Iq.occupancy iq);
        if Xiangshan.Iq.planned iq <> 0 then
          Alcotest.failf "cycle %d: IQ plan not reset" core.Core.now)
      core.Core.iqs;
    let dp = core.Core.plan.Core.ef_dispatch in
    if
      dp.Core.dp_n <> 0
      || Array.exists
           (fun p -> p.Core.pl_seq <> -1)
           dp.Core.dp_plans
    then Alcotest.failf "cycle %d: dispatch plan not reset" core.Core.now;
    (* rename discipline: the next seq is always the ROB tail *)
    if core.Core.seq <> core.Core.rob.Xiangshan.Rob.tail then
      Alcotest.failf "cycle %d: seq %d <> rob tail %d" core.Core.now
        core.Core.seq core.Core.rob.Xiangshan.Rob.tail
  done;
  soc

(* ROB-full arbitration: an 8-entry ROB forces the planner to cut the
   dispatch group at the snapshot limit every few cycles. *)
let test_rob_full_arbitration () =
  let cfg = { Xiangshan.Config.yqh with Xiangshan.Config.rob_size = 8 } in
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let soc = run_with_occupancy_invariant cfg prog ~order:(Core.Shuffle 5) in
  Alcotest.(check (option int)) "correct exit" (iss_exit prog)
    (Soc.exit_code soc);
  Alcotest.(check bool) "rob-full stalls attributed" true
    (counter soc "stall.dispatch.rob_full" > 0)

(* SB-full arbitration: a 1-entry store buffer makes commit and the
   background drain fight over the only slot; commit's enqueue wins
   and drain eligibility is re-read from the snapshot next cycle. *)
let test_sb_full_arbitration () =
  let cfg =
    { Xiangshan.Config.yqh with Xiangshan.Config.store_buffer_size = 1 }
  in
  let prog = (Workloads.Suite.find "stream_like").program ~scale:1 in
  let soc = run_with_occupancy_invariant cfg prog ~order:(Core.Shuffle 5) in
  Alcotest.(check (option int)) "correct exit" (iss_exit prog)
    (Soc.exit_code soc);
  Alcotest.(check bool) "sb-full stalls attributed" true
    (counter soc "stall.commit.sb_full" > 0)

(* Fault hooks fire at the effect boundary (between step and apply):
   a hook that flushes the whole speculative state mid-cycle leaves
   phase-2 holding a plan for uops that no longer exist.  Revalidation
   must degrade every such plan to a stall -- the run still reaches
   the architecturally correct exit, identically under every phase
   order.  (A flush to the committed pc is architecturally neutral, so
   the ISS exit code is still the oracle.) *)
let test_boundary_flush_degrades_to_stall () =
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let run order =
    let soc = Soc.create Xiangshan.Config.yqh in
    Soc.load_program soc prog;
    set_order soc order;
    Soc.add_fault_hook soc (fun s ->
        if s.Soc.now mod 97 = 0 then
          let c = s.Soc.cores.(0) in
          Core.flush c
            ~after:(c.Core.rob.Xiangshan.Rob.head - 1)
            ~target:c.Core.arch.Riscv.Arch_state.pc);
    let cycles = Soc.run ~max_cycles:50_000_000 soc in
    (cycles, Soc.exit_code soc, Soc.counter_snapshot soc ~hartid:0)
  in
  let cd, ed, kd = run Core.Default_order in
  Alcotest.(check (option int)) "correct exit" (iss_exit prog) ed;
  List.iter
    (fun order ->
      let cs, es, ks = run order in
      let what = "boundary flush " ^ order_name order in
      Alcotest.(check int) (what ^ " cycles") cd cs;
      Alcotest.(check (option int)) (what ^ " exit") ed es;
      Alcotest.(check (list (pair string int))) (what ^ " counters") kd ks)
    shuffles

(* Campaign smoke across permutations: detection, rule, latency and
   the LightSSS replay verdict of a fault cell must not depend on the
   phase-1 order.  iq-lost-uop is the sharpest case -- its hook steals
   a waiting uop at the effect boundary, exactly between a phase-1
   issue selection and its phase-2 application. *)
let test_campaign_cells_under_permutation () =
  let cell ?phase_order fault =
    Minjie.Campaign.run_cell ?phase_order ~fault:(Minjie.Fault.find fault)
      ~seed:1 ()
  in
  List.iter
    (fun fault ->
      let base = cell fault in
      Alcotest.(check bool) (fault ^ " detected") true
        base.Minjie.Campaign.c_detected;
      List.iter
        (fun seed ->
          let shuffled = cell ~phase_order:(Core.Shuffle seed) fault in
          if shuffled <> base then
            Alcotest.failf "%s cell diverged under shuffle:%d:\n%s\nvs\n%s"
              fault seed
              (Minjie.Campaign.string_of_cell shuffled)
              (Minjie.Campaign.string_of_cell base))
        [ 3; 11 ])
    [ "iq-lost-uop"; "lsu-sb-drop"; "csr-mtvec-corrupt" ]

(* The MINJIE_PHASE_ORDER parser, resolved by Run_config. *)
let test_phase_order_env () =
  let order_of v =
    Unix.putenv "MINJIE_PHASE_ORDER" v;
    Fun.protect
      ~finally:(fun () -> Unix.putenv "MINJIE_PHASE_ORDER" "")
      (fun () -> (Minjie.Run_config.resolve ()).Minjie.Run_config.phase_order)
  in
  Alcotest.(check bool) "default" true (order_of "default" = Core.Default_order);
  Alcotest.(check bool) "empty" true (order_of "" = Core.Default_order);
  Alcotest.(check bool) "shuffle" true (order_of "shuffle" = Core.Shuffle 1);
  Alcotest.(check bool) "shuffle:9" true (order_of "shuffle:9" = Core.Shuffle 9);
  List.iter
    (fun bad ->
      match order_of bad with
      | _ -> Alcotest.failf "MINJIE_PHASE_ORDER=%s was accepted" bad
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (bad ^ ": the error names the variable")
            true
            (String.starts_with ~prefix:"MINJIE_PHASE_ORDER=" msg))
    [ "shuffle:x"; "shufle" ]

let tests =
  [
    Alcotest.test_case "MINJIE_PHASE_ORDER parsing" `Quick test_phase_order_env;
    Alcotest.test_case "permutation identity under DiffTest (ISS REF)" `Slow
      test_permutations_iss;
    Alcotest.test_case "permutation identity under DiffTest (NEMU REF)" `Slow
      test_permutations_nemu;
    Alcotest.test_case "redirect-vs-commit arbitration under permutation" `Slow
      test_redirect_vs_commit_under_permutation;
    Alcotest.test_case "ROB-full: snapshot claims never oversubscribe" `Slow
      test_rob_full_arbitration;
    Alcotest.test_case "SB-full: commit wins the last slot" `Slow
      test_sb_full_arbitration;
    Alcotest.test_case "boundary fault flush degrades plans to stalls" `Slow
      test_boundary_flush_degrades_to_stall;
    Alcotest.test_case "campaign cells identical under permutation" `Slow
      test_campaign_cells_under_permutation;
  ]
