(* DiffTest / DRAV: clean verification across configurations (the
   N-to-1 DUT/REF correspondence), the diff-rules on their dedicated
   scenarios, and injected-bug detection. *)

let run_difftest ?(max_cycles = 30_000_000) ?inject cfg prog =
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  (match inject with Some f -> f soc | None -> ());
  let dt = Minjie.Difftest.create ~prog soc in
  (Minjie.Workflow.drive ~max_cycles dt, dt)

let check_finished name (status, _) =
  match status with
  | Minjie.Difftest.Finished _ -> ()
  | Minjie.Difftest.Failed f ->
      Alcotest.failf "%s: difftest failed at cycle %d pc=0x%Lx (%s): %s" name
        f.Minjie.Rule.f_cycle f.Minjie.Rule.f_pc f.Minjie.Rule.f_rule
        f.Minjie.Rule.f_msg
  | Minjie.Difftest.Running -> Alcotest.failf "%s: difftest timed out" name

(* One REF + one rule set verifies every DUT configuration: the
   paper's N-to-1 correspondence (Figure 1c). *)
let n_to_1_case cfg =
  Alcotest.test_case
    ("one REF verifies " ^ cfg.Xiangshan.Config.cfg_name)
    `Slow
    (fun () ->
      List.iter
        (fun (w : Workloads.Wl_common.t) ->
          let prog = w.program ~scale:1 in
          check_finished
            (cfg.Xiangshan.Config.cfg_name ^ "/" ^ w.wl_name)
            (run_difftest cfg prog))
        [
          Workloads.Suite.find "coremark_like";
          Workloads.Suite.find "sjeng_like";
          Workloads.Suite.find "bwaves_like";
        ])

let configs_to_verify =
  [
    Xiangshan.Config.yqh;
    Xiangshan.Config.nh_single;
    Xiangshan.Config.nh_fpga_250c_2mb;
    {
      Xiangshan.Config.yqh with
      Xiangshan.Config.cfg_name = "YQH-PUBS";
      issue_policy = Xiangshan.Config.Pubs;
    };
  ]

let test_page_fault_rule () =
  let prog = Workloads.Vm_kernel.program ~scale:2 () in
  let status, dt = run_difftest Xiangshan.Config.yqh prog in
  check_finished "vm_kernel" (status, dt);
  let fires = List.assoc "page-fault-forcing" (Minjie.Difftest.rule_fire_counts dt) in
  Alcotest.(check bool)
    (Printf.sprintf "page-fault rule fired (%d)" fires)
    true (fires > 0)

let test_user_mode_delegation () =
  (* three privilege levels, medeleg'd page faults and U-ecalls,
     S-mode lazy allocation: verified by the same REF and rules *)
  let prog = Workloads.User_mode.program ~scale:2 () in
  let status, dt = run_difftest Xiangshan.Config.yqh prog in
  check_finished "user_mode" (status, dt);
  let fires =
    List.assoc "page-fault-forcing" (Minjie.Difftest.rule_fire_counts dt)
  in
  Alcotest.(check bool) "delegated faults forced" true (fires > 0)

let test_interrupt_and_csr_rules () =
  let prog = Workloads.Timer.program ~scale:2 in
  let status, dt = run_difftest Xiangshan.Config.yqh prog in
  check_finished "timer" (status, dt);
  let fires n = List.assoc n (Minjie.Difftest.rule_fire_counts dt) in
  Alcotest.(check bool) "interrupts forced" true (fires "interrupt-forcing" > 0);
  Alcotest.(check bool) "mmio loads patched" true (fires "mmio-load-trust" > 0)

let test_sc_and_global_memory_rules () =
  let prog = Workloads.Smp.lrsc_contend ~scale:2 in
  let status, dt = run_difftest Xiangshan.Config.nh prog in
  check_finished "smp_lrsc" (status, dt);
  let fires n = List.assoc n (Minjie.Difftest.rule_fire_counts dt) in
  Alcotest.(check bool) "sc failures forced" true
    (fires "sc-failure-forcing" > 0);
  Alcotest.(check bool) "global memory patched" true
    (fires "global-memory-load" > 0)

let test_spinlock_correct_total () =
  let prog = Workloads.Smp.spinlock ~scale:1 in
  let status, _ = run_difftest Xiangshan.Config.nh prog in
  match status with
  | Minjie.Difftest.Finished code ->
      Alcotest.(check int) "2 harts x 50 increments" 100 code
  | _ -> Alcotest.fail "spinlock did not finish"

(* --- injected bugs must be caught ------------------------------------- *)

(* Co-simulate [prog] on [cfg], applying [poke] to the SoC just
   before the [at]th tick, and return the failure the DiffTest reports. *)
let poke_failure cfg prog ~at poke =
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  let dt = Minjie.Difftest.create ~prog soc in
  let cycles = ref 0 in
  while
    (match Minjie.Difftest.status dt with
    | Minjie.Difftest.Running -> true
    | Minjie.Difftest.Finished _ | Minjie.Difftest.Failed _ -> false)
    && !cycles < 10_000_000
  do
    incr cycles;
    if !cycles = at then poke soc;
    Minjie.Difftest.tick dt
  done;
  match Minjie.Difftest.status dt with
  | Minjie.Difftest.Failed f -> f
  | Minjie.Difftest.Finished _ | Minjie.Difftest.Running ->
      Alcotest.fail "poke not caught"

let arch_of soc hart = soc.Xiangshan.Soc.cores.(hart).Xiangshan.Core.arch

(* Each poke must be caught by the state compare in the cycle it lands
   in, on the hart it hit, after [commits] checked commits: the cycle
   and count recorded when every cycle was compared. *)
let check_caught name (f : Minjie.Rule.failure) ~hart ~cycle ~commits =
  Alcotest.(check string) (name ^ ": rule") "state-compare" f.Minjie.Rule.f_rule;
  Alcotest.(check int) (name ^ ": hart") hart f.Minjie.Rule.f_hart;
  Alcotest.(check int) (name ^ ": cycle") cycle f.Minjie.Rule.f_cycle;
  Alcotest.(check int) (name ^ ": commits checked") commits
    f.Minjie.Rule.f_commits

let bump_x9 soc =
  let arch = arch_of soc 0 in
  Riscv.Arch_state.set_reg arch 9 (Int64.add (Riscv.Arch_state.get_reg arch 9) 1L)

let coremark () = (Workloads.Suite.find "coremark_like").program ~scale:1

let test_catches_corrupted_commit () =
  (* flip a committed register value mid-run: the state comparison
     must flag it *)
  check_caught "x9 @5000"
    (poke_failure Xiangshan.Config.yqh (coremark ()) ~at:5000 bump_x9)
    ~hart:0 ~cycle:5000 ~commits:4145

(* Pokes that land on a cycle in which the hart retires nothing (YQH
   coremark_like retires nothing in cycles 5001, 5002, 5006, 5009 and
   5010): a compare run only on retiring cycles would report them at
   the next retiring cycle (5003, 5003, 5007, 5011, 5011). *)
let quiet_cycle_pokes =
  List.map
    (fun (at, commits) ->
      Alcotest.test_case
        (Printf.sprintf "catches an x9 poke at quiet cycle %d" at)
        `Quick
        (fun () ->
          check_caught
            (Printf.sprintf "x9 @%d" at)
            (poke_failure Xiangshan.Config.yqh (coremark ()) ~at bump_x9)
            ~hart:0 ~cycle:at ~commits))
    [ (5001, 4145); (5002, 4145); (5006, 4150); (5009, 4152); (5010, 4152) ]

(* On dual-core NH smp_lrsc hart 1 retires in cycles 3003 and 3005 but
   not in 3004, and hart 0 retires nothing in cycles 3004-3007 or 3009:
   each poke is caught in its own cycle, on its own hart. *)
let test_catches_hart1_freg_poke () =
  let f =
    poke_failure Xiangshan.Config.nh (Workloads.Smp.lrsc_contend ~scale:2)
      ~at:3004 (fun soc ->
        let arch = arch_of soc 1 in
        Riscv.Arch_state.set_freg arch 5
          (Int64.logxor (Riscv.Arch_state.get_freg arch 5) 1L))
  in
  check_caught "hart 1 f5 @3004" f ~hart:1 ~cycle:3004 ~commits:854;
  Alcotest.(check string) "message" "DUT vs REF: f5: 0x1 vs 0x0" f.f_msg

(* A poked pc is overwritten by the hart's next commit, so only a
   compare in the poked cycle can see it. *)
let test_catches_pc_poke () =
  let f =
    poke_failure Xiangshan.Config.nh (Workloads.Smp.lrsc_contend ~scale:2)
      ~at:3009 (fun soc ->
        let arch = arch_of soc 0 in
        Riscv.Arch_state.set_pc arch (Int64.add arch.Riscv.Arch_state.pc 4L))
  in
  check_caught "hart 0 pc @3009" f ~hart:0 ~cycle:3009 ~commits:858;
  Alcotest.(check string)
    "message" "DUT vs REF: pc: 0x8000004c vs 0x80000048" f.f_msg

(* Both §IV-C bugs now live in the fault registry; the tests install
   them through the same API the campaign uses, and the accepted-rule
   lists come from the registry entry rather than being duplicated
   here. *)
let run_registry_fault name prog =
  let fault = Minjie.Fault.find name in
  let status, _ =
    run_difftest Xiangshan.Config.nh prog ~inject:(fun soc ->
        fault.Minjie.Fault.f_install ~seed:0 ~trigger:fault.Minjie.Fault.f_trigger
          soc)
  in
  match status with
  | Minjie.Difftest.Failed f ->
      Alcotest.(check bool)
        ("caught by " ^ f.Minjie.Rule.f_rule)
        true
        (List.mem f.Minjie.Rule.f_rule fault.Minjie.Fault.f_expected_rules)
  | Minjie.Difftest.Finished _ -> Alcotest.fail "bug escaped"
  | Minjie.Difftest.Running -> Alcotest.fail "timeout without detection"

let test_catches_l2_race_bug () =
  run_registry_fault "cache-mshr-race" (Workloads.Smp.lrsc_contend ~scale:4)

let test_catches_skip_probe_bug () =
  run_registry_fault "cache-skip-probe" (Workloads.Smp.spinlock ~scale:4)

(* global memory unit behaviour *)
let test_global_memory_history () =
  let g = Minjie.Global_memory.create () in
  Minjie.Global_memory.record g ~cycle:100 ~paddr:0x1000L ~size:8 ~value:1L;
  Minjie.Global_memory.record g ~cycle:200 ~paddr:0x1000L ~size:8 ~value:2L;
  (* current value always legal *)
  Alcotest.(check bool) "current" true
    (Minjie.Global_memory.compatible g ~at:300 ~paddr:0x1000L ~size:8 ~value:2L);
  (* the old value is legal only near its overwrite *)
  Alcotest.(check bool) "old value at overwrite time" true
    (Minjie.Global_memory.compatible g ~at:199 ~paddr:0x1000L ~size:8 ~value:1L);
  Alcotest.(check bool) "stale long after overwrite" false
    (Minjie.Global_memory.compatible g ~at:5000 ~paddr:0x1000L ~size:8 ~value:1L);
  (* a value never stored anywhere: bytes unconstrained -> initial image *)
  Alcotest.(check bool) "untouched address" true
    (Minjie.Global_memory.compatible g ~at:300 ~paddr:0x2000L ~size:8 ~value:99L);
  Alcotest.(check (option int64)) "lookup" (Some 2L)
    (Minjie.Global_memory.lookup g ~paddr:0x1000L ~size:8)

(* --- Global Memory: lazy pruning answers exactly like eager pruning -- *)

(* The model: the eager implementation Global_memory replaced, which
   prunes a word's whole history on every record. *)
module Eager = struct
  type entry = { e_mask : int; e_value : int64; e_cycle : int }

  type t = (int64, entry list) Hashtbl.t

  let slack = Minjie.Global_memory.slack
  let retention = Minjie.Global_memory.retention
  let create () : t = Hashtbl.create 16

  let prune ~now history =
    let cutoff = now - retention in
    let shadow = Array.make 8 max_int in
    let keep e =
      let useful = ref false in
      for b = 0 to 7 do
        if e.e_mask land (1 lsl b) <> 0 then begin
          if shadow.(b) = max_int || shadow.(b) >= cutoff then useful := true;
          shadow.(b) <- e.e_cycle
        end
      done;
      !useful
    in
    List.filter keep history

  let record (t : t) ~cycle ~paddr ~size ~value =
    let rec go i =
      if i < size then begin
        let a = Int64.add paddr (Int64.of_int i) in
        let word = Int64.shift_right_logical a 3 in
        let lane = Int64.to_int (Int64.logand a 7L) in
        let n = min (size - i) (8 - lane) in
        let mask = ((1 lsl n) - 1) lsl lane in
        let chunk =
          Int64.shift_left
            (Int64.logand
               (Int64.shift_right_logical value (8 * i))
               (if n >= 8 then -1L
                else Int64.sub (Int64.shift_left 1L (8 * n)) 1L))
            (8 * lane)
        in
        let prev = Option.value (Hashtbl.find_opt t word) ~default:[] in
        Hashtbl.replace t word
          ({ e_mask = mask; e_value = chunk; e_cycle = cycle }
          :: prune ~now:cycle prev);
        go (i + n)
      end
    in
    go 0

  let byte_of v lane =
    Int64.to_int (Int64.shift_right_logical v (8 * lane)) land 0xFF

  let byte_ok (t : t) ~at ~word ~lane b =
    match Hashtbl.find_opt t word with
    | None -> `Unrecorded
    | Some history ->
        let rec go ~overwrite = function
          | [] -> if overwrite = max_int then `Unrecorded else `Stale
          | e :: rest ->
              if e.e_mask land (1 lsl lane) <> 0 then
                if byte_of e.e_value lane = b && overwrite >= at - slack then
                  `Ok
                else go ~overwrite:e.e_cycle rest
              else go ~overwrite rest
        in
        go ~overwrite:max_int history

  let compatible (t : t) ~at ~paddr ~size ~value =
    let ok = ref true in
    for i = 0 to size - 1 do
      let a = Int64.add paddr (Int64.of_int i) in
      let word = Int64.shift_right_logical a 3 in
      let lane = Int64.to_int (Int64.logand a 7L) in
      match byte_ok t ~at ~word ~lane (byte_of value i) with
      | `Ok | `Unrecorded -> ()
      | `Stale -> ok := false
    done;
    !ok

  let lookup (t : t) ~paddr ~size =
    let v = ref 0L and all = ref true in
    for i = size - 1 downto 0 do
      let a = Int64.add paddr (Int64.of_int i) in
      let word = Int64.shift_right_logical a 3 in
      let lane = Int64.to_int (Int64.logand a 7L) in
      let byte =
        match Hashtbl.find_opt t word with
        | None -> None
        | Some history ->
            List.find_map
              (fun e ->
                if e.e_mask land (1 lsl lane) <> 0 then
                  Some (byte_of e.e_value lane)
                else None)
              history
      in
      match byte with
      | Some b -> v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
      | None -> all := false
    done;
    if !all then Some !v else None
end

type gm_op =
  | Store of { gap : int; off : int; size : int; value : int64 }
  | Check of { back : int; off : int; size : int; value : int64 }
  | Lookup of { off : int; size : int }

let show_gm_op = function
  | Store { gap; off; size; value } ->
      Printf.sprintf "store(%+d @%d/%d=0x%Lx)" gap off size value
  | Check { back; off; size; value } ->
      Printf.sprintf "check(-%d @%d/%d=0x%Lx)" back off size value
  | Lookup { off; size } -> Printf.sprintf "lookup(@%d/%d)" off size

let gen_gm_ops =
  let open QCheck2.Gen in
  let retention = Minjie.Global_memory.retention in
  (* a few hot words; stores may straddle a word boundary *)
  let off = int_range 0 27 in
  let size = oneofl [ 1; 2; 4; 8 ] in
  (* few distinct bytes, so older values are often observed again *)
  let value =
    oneofl
      [
        0L; 1L; -1L; 0x0101010101010101L; 0x00FF00FF00FF00FFL;
        0x1122334455667788L;
      ]
  in
  let gap =
    frequency
      [
        (20, int_range 0 40);
        (3, int_range 1000 4000);
        (2, int_range (retention - 50) (retention + 50));
        (1, int_range (retention + 1) (3 * retention));
        (* a rewind: a LightSSS debug replay records again from an
           earlier snapshot *)
        (2, map (fun g -> -g) (int_range 1 6000));
      ]
  in
  let back =
    frequency
      [
        (5, int_range 0 40);
        (3, int_range 0 (2 * retention));
        (1, int_range 0 (10 * retention));
      ]
  in
  let op =
    frequency
      [
        ( 6,
          map4
            (fun gap off size value -> Store { gap; off; size; value })
            gap off size value );
        ( 3,
          map4
            (fun back off size value -> Check { back; off; size; value })
            back off size value );
        (1, map2 (fun off size -> Lookup { off; size }) off size);
      ]
  in
  list_size (int_range 1 400) op

(* Replay one op stream against both; every answer must agree. *)
let gm_agrees ops =
  let g = Minjie.Global_memory.create () and m = Eager.create () in
  let now = ref 10_000 in
  let paddr off = Int64.of_int (0x8000_1000 + off) in
  List.for_all
    (function
      | Store { gap; off; size; value } ->
          now := max 0 (!now + gap);
          Minjie.Global_memory.record g ~cycle:!now ~paddr:(paddr off) ~size
            ~value;
          Eager.record m ~cycle:!now ~paddr:(paddr off) ~size ~value;
          true
      | Check { back; off; size; value } ->
          let at = !now - back in
          Minjie.Global_memory.compatible g ~at ~paddr:(paddr off) ~size ~value
          = Eager.compatible m ~at ~paddr:(paddr off) ~size ~value
      | Lookup { off; size } ->
          Minjie.Global_memory.lookup g ~paddr:(paddr off) ~size
          = Eager.lookup m ~paddr:(paddr off) ~size)
    ops

let test_global_memory_matches_eager =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"Global Memory answers like eager pruning"
       ~print:(fun ops -> String.concat " " (List.map show_gm_op ops))
       gen_gm_ops gm_agrees)

(* A word stored every cycle (a spinlock) keeps about one retention
   window of history, not everything ever stored to it. *)
let test_global_memory_hot_word_bounded () =
  let g = Minjie.Global_memory.create () in
  let paddr = 0x8000_2000L and early = 0x5A5A5A5A5A5A5A5AL in
  let peak = ref 0 in
  for cycle = 0 to 49_999 do
    Minjie.Global_memory.record g ~cycle ~paddr ~size:8
      ~value:(if cycle < 1000 then early else Int64.of_int cycle);
    peak := max !peak (Minjie.Global_memory.history_length g ~paddr)
  done;
  let retention = Minjie.Global_memory.retention in
  Alcotest.(check bool)
    (Printf.sprintf "peak history %d <= 2 x retention + 16" !peak)
    true
    (!peak <= (2 * retention) + 16);
  (* the same answers as ever: a value is legal for a load that read
     memory up to its overwrite, and no longer once it has been
     overwritten for more than the retention window *)
  Alcotest.(check bool) "overwritten within the window" true
    (Minjie.Global_memory.compatible g ~at:49_000 ~paddr ~size:8
       ~value:(Int64.of_int 48_999));
  Alcotest.(check bool) "overwritten before the window" false
    (Minjie.Global_memory.compatible g ~at:500 ~paddr ~size:8 ~value:early)

(* --- allocation budget: DiffTest's own minor words per cycle --------- *)

(* [Xiangshan.Predecode]'s memo is process-wide: a run decodes fewer
   instruction words when an earlier test ran the same code.  One
   unmeasured raw run of the program leaves every memo slot the
   program uses as the measured run needs it, whatever ran before, so
   the measured counts are the same in the suite and alone. *)
let warm_predecode cfg prog =
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  ignore (Xiangshan.Soc.run soc)

(* What co-simulation allocates on top of the DUT: the minor words of
   [Workflow.drive] minus those of a raw [Soc.run] of the same program
   on the same configuration, per simulated cycle.  With
   [snapshot_interval], [drive] also ticks a LightSSS manager, the way
   [Workflow.run_collect] runs fast mode.  One unmeasured
   co-simulation first warms both process-wide memos, the predecode
   memo and the ISS REF's decode memo; both counts then repeat exactly
   in any test order, so the budget can be tight. *)
let difftest_words_per_cycle ?snapshot_interval cfg ref_kind prog =
  (let soc = Xiangshan.Soc.create cfg in
   Xiangshan.Soc.load_program soc prog;
   let dt = Minjie.Difftest.create ~ref_kind ~prog soc in
   ignore (Minjie.Workflow.drive ~max_cycles:50_000_000 dt));
  let raw = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program raw prog;
  let w0 = Gc.minor_words () in
  let raw_cycles = Xiangshan.Soc.run raw in
  let raw_words = Gc.minor_words () -. w0 in
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  let dt = Minjie.Difftest.create ~ref_kind ~prog soc in
  let snapshots =
    Option.map
      (fun interval ->
        Lightsss.manager ~interval (Minjie.Workflow.subject_of dt))
      snapshot_interval
  in
  let w1 = Gc.minor_words () in
  let status = Minjie.Workflow.drive ?snapshots ~max_cycles:50_000_000 dt in
  let dt_words = Gc.minor_words () -. w1 in
  check_finished "budget kernel" (status, dt);
  Alcotest.(check int) "same cycles as the raw DUT" raw_cycles
    soc.Xiangshan.Soc.now;
  (dt_words -. raw_words) /. float_of_int raw_cycles

(* Checked-in budgets, set just above the measured values (1.67 and
   12.81, with committed stores recorded in a ring of unboxed columns
   and the ISS REF's decoded instructions memoised; before them the
   budgets were 2 and 24 for 1.75 and 23.77, with commit slots checked
   in place and REFs that report into one reusable record 27 and 89
   for 26.1 and 87.9, and before the allocation-free compare and
   Global Memory the counts were 275.5 and 637.0).  The third input is
   fast mode as perfbench's untraced [cosim_*] ops time it through
   [Workflow.run_collect]: LightSSS snapshots every 2000 cycles, 2.31
   (budget 2.5 for 2.40 before the store ring, 26.8 before that;
   snapshot images are marshalled outside the minor heap, so they add
   little here).  A change that lowers a count must lower its budget
   in the same change, so the saving cannot quietly erode. *)
let difftest_alloc_budgets =
  [
    ( "YQH coremark_like, NEMU REF",
      Xiangshan.Config.yqh,
      Minjie.Ref_model.Nemu,
      None,
      (fun () -> (Workloads.Suite.find "coremark_like").program ~scale:1),
      1.7 );
    ( "dual-core NH smp_spinlock, ISS REF",
      Xiangshan.Config.nh,
      Minjie.Ref_model.Iss,
      None,
      (fun () -> Workloads.Smp.spinlock ~scale:1),
      13. );
    ( "YQH coremark_like, NEMU REF, LightSSS every 2000 cycles",
      Xiangshan.Config.yqh,
      Minjie.Ref_model.Nemu,
      Some 2000,
      (fun () -> (Workloads.Suite.find "coremark_like").program ~scale:1),
      2.4 );
  ]

let test_difftest_alloc_budget () =
  List.iter
    (fun (name, cfg, ref_kind, snapshot_interval, prog, budget) ->
      let w =
        difftest_words_per_cycle ?snapshot_interval cfg ref_kind (prog ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f words/cycle <= budget %.1f" name w budget)
        true (w <= budget))
    difftest_alloc_budgets

(* --- allocation budget: the raw DUT's minor words per cycle ---------- *)

(* Minor words of a raw [Soc.run] (no DiffTest, no REF) per simulated
   cycle, after a warming run; the count then repeats exactly in any
   test order.  Budgets are set just above the measured values (29.84
   and 58.35, 58.37 before the AMO at the ROB head stopped boxing its
   old value; with ROB-resident uops whose 64-bit state is unboxed,
   fetch bundles built in order and at-head helpers that allocate no
   closures; before them the budgets were 56 and 104 for 55.52 and
   103.69, with per-slot commit probes and an unboxed minstret 68 and
   126 for 67.0 and 125.3, with
   predecoded instructions and compact uops 93 and 162 for 91.9 and
   160.8, and with list-based issue, load and store queues and
   per-cycle plan records the counts were 381.08 and 771.40).  A
   change that lowers a count must lower its budget in the same
   change, so the saving cannot quietly erode. *)
let dut_alloc_budgets =
  [
    ( "YQH coremark_like",
      Xiangshan.Config.yqh,
      (fun () -> (Workloads.Suite.find "coremark_like").program ~scale:1),
      30. );
    ( "dual-core NH smp_spinlock",
      Xiangshan.Config.nh,
      (fun () -> Workloads.Smp.spinlock ~scale:1),
      59. );
  ]

let test_dut_alloc_budget () =
  List.iter
    (fun (name, cfg, prog, budget) ->
      let prog = prog () in
      warm_predecode cfg prog;
      let soc = Xiangshan.Soc.create cfg in
      Xiangshan.Soc.load_program soc prog;
      let w0 = Gc.minor_words () in
      let cycles = Xiangshan.Soc.run soc in
      let w = (Gc.minor_words () -. w0) /. float_of_int cycles in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f words/cycle <= budget %.1f" name w budget)
        true (w <= budget))
    dut_alloc_budgets

(* --- allocation budget: minor words per REF step ---------------------- *)

(* A REF reports every step into its one reusable commit record, so a
   step allocates only what its instruction computes (boxed int64
   results, NEMU's block compiles).  Each backend runs coremark_like
   s1 to its exit on its own, one [Ref_model.step] at a time, after
   one unmeasured run; the count repeats exactly.  Budgets sit just
   above the measured values: 8.59 (ISS, whose decoded instructions
   are memoised per word; 18.85 and a budget of 19 when it decoded
   every step afresh) and 2.69 (NEMU, whose blocks also box their
   straight-line pcs once).  With a fresh commit
   record, [Committed] value and access records per step, the ISS's
   per-step register-access closures, NEMU's per-step cursor closure
   and pc boxes, and boxed instret and minstret counters, the counts
   were 72.06 and 39.00.  A change that
   lowers a count must lower its budget in the same change. *)
let ref_step_budgets =
  [ (Minjie.Ref_model.Iss, 9.); (Minjie.Ref_model.Nemu, 3.) ]

let test_ref_step_alloc_budget () =
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let run kind =
    let r = Minjie.Ref_model.create ~kind ~hartid:0 ~prog () in
    let steps = ref 0 and running = ref true in
    let w0 = Gc.minor_words () in
    while !running do
      match r.Minjie.Ref_model.step () with
      | Minjie.Ref_model.Committed _ -> incr steps
      | Minjie.Ref_model.Exited -> running := false
    done;
    (Gc.minor_words () -. w0) /. float_of_int !steps
  in
  List.iter
    (fun (kind, budget) ->
      (* the ISS's decode memo is process-wide, like the predecode
         memo: one unmeasured run warms it whatever ran before *)
      ignore (run kind);
      let w = run kind in
      Alcotest.(check bool)
        (Printf.sprintf "%s REF: %.2f words/step <= budget %.1f"
           (Minjie.Ref_model.kind_name kind) w budget)
        true (w <= budget))
    ref_step_budgets

let tests =
  List.map n_to_1_case configs_to_verify
  @ [
      Alcotest.test_case "page-fault diff-rule (Figure 3)" `Slow
        test_page_fault_rule;
      Alcotest.test_case "U/S/M privilege stack with delegation" `Slow
        test_user_mode_delegation;
      Alcotest.test_case "interrupt + CSR diff-rules" `Slow
        test_interrupt_and_csr_rules;
      Alcotest.test_case "SC + Global-Memory diff-rules" `Slow
        test_sc_and_global_memory_rules;
      Alcotest.test_case "SMP spinlock verified total" `Slow
        test_spinlock_correct_total;
      Alcotest.test_case "catches corrupted commit" `Quick
        test_catches_corrupted_commit;
      Alcotest.test_case "catches injected L2 race (§IV-C)" `Slow
        test_catches_l2_race_bug;
      Alcotest.test_case "catches skip-probe coherence bug" `Slow
        test_catches_skip_probe_bug;
      Alcotest.test_case "Global Memory history semantics" `Quick
        test_global_memory_history;
      test_global_memory_matches_eager;
      Alcotest.test_case "Global Memory hot word stays bounded" `Quick
        test_global_memory_hot_word_bounded;
      Alcotest.test_case "DiffTest allocation budget" `Quick
        test_difftest_alloc_budget;
      Alcotest.test_case "raw DUT allocation budget" `Quick
        test_dut_alloc_budget;
      Alcotest.test_case "REF step allocation budget" `Quick
        test_ref_step_alloc_budget;
    ]
  @ quiet_cycle_pokes
  @ [
      Alcotest.test_case "catches a hart-1 f-register poke on NH" `Quick
        test_catches_hart1_freg_poke;
      Alcotest.test_case "catches a pc poke through set_pc on NH" `Quick
        test_catches_pc_poke;
    ]
