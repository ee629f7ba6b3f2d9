(* lib/perf: counter registry, top-down CPI stacks, pipeline tracing.

   The load-bearing invariants: the CPI stack sums exactly to the
   measured cycle count on every suite workload (each cycle is
   attributed to exactly one bucket at runtime, so this is an equality
   check, not a tolerance); counters and trace windows are
   deterministic across LightSSS snapshot/replay; the commit counters
   match the DiffTest commit stream under both REF backends; and all
   of it is pure observation -- verdicts are bit-identical with perf
   instrumentation on or off. *)

(* --- the counter registry itself ------------------------------------- *)

let test_registry () =
  let t = Perf.Perf_counter.create ~capacity:2 () in
  let a = Perf.Perf_counter.register t "a" in
  let b = Perf.Perf_counter.register t "b" in
  (* third registration forces the backing arrays to grow *)
  let c = Perf.Perf_counter.register t "c" in
  Perf.Perf_counter.incr t a;
  Perf.Perf_counter.add t b 41;
  Perf.Perf_counter.incr t b;
  Alcotest.(check int) "incr" 1 (Perf.Perf_counter.get t a);
  Alcotest.(check int) "add" 42 (Perf.Perf_counter.get t b);
  Alcotest.(check int) "fresh counter is zero" 0 (Perf.Perf_counter.get t c);
  Alcotest.(check (option int)) "find" (Some 42) (Perf.Perf_counter.find t "b");
  Alcotest.(check (option int)) "find missing" None
    (Perf.Perf_counter.find t "zzz");
  Alcotest.(check (list (pair string int)))
    "to_alist in registration order"
    [ ("a", 1); ("b", 42); ("c", 0) ]
    (Perf.Perf_counter.to_alist t);
  Alcotest.check_raises "duplicate registration rejected"
    (Invalid_argument "Perf_counter.register: duplicate \"a\"") (fun () ->
      ignore (Perf.Perf_counter.register t "a"));
  Perf.Perf_counter.reset t;
  Alcotest.(check int) "reset" 0 (Perf.Perf_counter.get t b)

let test_of_counters_missing () =
  match Perf.Topdown.of_counters [ ("core.cycles", 10) ] with
  | Ok _ -> Alcotest.fail "of_counters accepted an incomplete snapshot"
  | Error msg ->
      Alcotest.(check bool) "error names the missing counter" true
        (String.length msg > 0)

(* --- the CPI-stack invariant on every suite workload ------------------ *)

let run_counters (w : Workloads.Wl_common.t) =
  let prog =
    w.Workloads.Wl_common.program ~scale:w.Workloads.Wl_common.small
  in
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  let _ = Xiangshan.Soc.run ~max_cycles:100_000_000 soc in
  Xiangshan.Soc.counter_snapshot soc ~hartid:0

let stack_of counters =
  match Perf.Topdown.of_counters counters with
  | Ok s -> s
  | Error msg -> Alcotest.failf "of_counters: %s" msg

let test_stack_sums_on_suite () =
  List.iter
    (fun (w : Workloads.Wl_common.t) ->
      let stack = stack_of (run_counters w) in
      (match Perf.Topdown.check stack with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "%s: %s" w.Workloads.Wl_common.wl_name msg);
      Alcotest.(check bool)
        (w.Workloads.Wl_common.wl_name ^ ": ran some cycles")
        true
        (stack.Perf.Topdown.ts_cycles > 0);
      (* the level-1 grouping partitions the level-2 buckets, so its
         fractions must sum to 1 as well *)
      let total =
        List.fold_left
          (fun acc l1 -> acc +. Perf.Topdown.level1_frac stack l1)
          0.0 Perf.Topdown.level1_all
      in
      Alcotest.(check bool)
        (w.Workloads.Wl_common.wl_name ^ ": L1 fractions sum to 1")
        true
        (abs_float (total -. 1.0) < 1e-9))
    Workloads.Suite.all

(* --- determinism across LightSSS snapshot/replay ---------------------- *)

let test_counters_replay_deterministic () =
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  (* the tracer is part of the core graph, so the trace window rides
     inside the snapshot exactly like the counters do *)
  ignore (Xiangshan.Soc.attach_tracers ~capacity:512 soc);
  let dt = Minjie.Difftest.create ~prog soc in
  let subject = Minjie.Workflow.subject_of dt in
  for _ = 1 to 3000 do
    Minjie.Difftest.tick dt
  done;
  let snap = Lightsss.snapshot subject ~cycle:3000 in
  for _ = 1 to 2000 do
    Minjie.Difftest.tick dt
  done;
  let snapshot_of dt =
    Xiangshan.Soc.counter_snapshot (Minjie.Difftest.soc dt) ~hartid:0
  in
  let reference = snapshot_of dt in
  let dt' = Minjie.Workflow.restore_shared dt snap in
  for _ = 1 to 2000 do
    Minjie.Difftest.tick dt'
  done;
  let replayed = snapshot_of dt' in
  List.iter2
    (fun (n, v) (n', v') ->
      Alcotest.(check string) "same counter order" n n';
      Alcotest.(check int) ("replayed " ^ n) v v')
    reference replayed;
  let konata dt =
    match
      (Minjie.Difftest.soc dt).Xiangshan.Soc.cores.(0).Xiangshan.Core.tracer
    with
    | Some tr -> Perf.Pipetrace.to_konata tr
    | None -> Alcotest.fail "tracer lost across snapshot/restore"
  in
  Alcotest.(check string) "identical Konata trace window" (konata dt)
    (konata dt');
  Lightsss.release snap

(* --- the commit counters vs the DiffTest commit stream ---------------- *)

(* every commit-stream probe (uop, trap, interrupt) is checked by
   DiffTest, so the instret-style counters must reconstruct
   commits_checked exactly -- under either REF backend *)
let commit_counters_match kind () =
  let w = Workloads.Suite.find "coremark_like" in
  let prog = w.Workloads.Wl_common.program ~scale:1 in
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  let dt = Minjie.Difftest.create ~ref_kind:kind ~prog soc in
  (match Minjie.Workflow.drive ~max_cycles:100_000_000 dt with
  | Minjie.Difftest.Finished _ -> ()
  | Minjie.Difftest.Failed f ->
      Alcotest.failf "difftest failed: %s" f.Minjie.Rule.f_msg
  | Minjie.Difftest.Running -> Alcotest.fail "cycle budget exhausted");
  let counters = Xiangshan.Soc.counter_snapshot soc ~hartid:0 in
  let get n =
    match List.assoc_opt n counters with
    | Some v -> v
    | None -> Alcotest.failf "missing counter %s" n
  in
  Alcotest.(check int) "commits_checked = uops + traps + interrupts"
    (Minjie.Difftest.commits_checked dt)
    (get "core.uops" + get "core.traps" + get "core.interrupts");
  Alcotest.(check bool) "instret counted" true (get "core.instrs" > 0)

(* --- purity: identical verdicts with perf on or off ------------------- *)

let test_verdict_pure_under_perf () =
  (* a full campaign cell -- fast mode, detection, debug replay -- run
     twice, with and without tracers; the cell record carries every
     verdict field and must be structurally identical *)
  let fault = Minjie.Fault.find "csr-mtvec-corrupt" in
  let cell perf = Minjie.Campaign.run_cell ~perf ~fault ~seed:1 () in
  let off = cell false and on = cell true in
  Alcotest.(check bool) "cell detected" true off.Minjie.Campaign.c_detected;
  Alcotest.(check bool) "identical cell with perf on" true (off = on)

(* --- the pipeline tracer ---------------------------------------------- *)

let test_pipetrace_konata () =
  let w = Workloads.Suite.find "coremark_like" in
  let prog = w.Workloads.Wl_common.program ~scale:1 in
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  let trs = Xiangshan.Soc.attach_tracers ~capacity:256 soc in
  let _ = Xiangshan.Soc.run ~max_cycles:200_000 soc in
  let tr = trs.(0) in
  Alcotest.(check bool) "many uops recorded" true
    (Perf.Pipetrace.recorded tr > 256);
  Alcotest.(check int) "ring keeps the last window" 256
    (Perf.Pipetrace.live tr);
  let text = Perf.Pipetrace.to_konata tr in
  let lines = String.split_on_char '\n' text in
  (match lines with
  | header :: _ -> Alcotest.(check string) "header" "Kanata\t0004" header
  | [] -> Alcotest.fail "empty trace");
  let starts_with p l =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  let count p = List.length (List.filter (starts_with p) lines) in
  let n_i = count "I\t" in
  Alcotest.(check int) "one record per live uop" 256 n_i;
  Alcotest.(check int) "one label per record" n_i (count "L\t");
  Alcotest.(check int) "one retire per record" n_i (count "R\t");
  (* every record enters at least the fetch stage *)
  Alcotest.(check bool) "stage starts present" true (count "S\t" >= n_i);
  Alcotest.(check bool) "cycle advances present" true (count "C\t" > 0)

(* --- ArchDB persistence ----------------------------------------------- *)

let test_archdb_final_counters () =
  let prog = (Workloads.Suite.find "sort_like").program ~scale:1 in
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  let _ = Xiangshan.Soc.run ~max_cycles:100_000_000 soc in
  let db = Minjie.Archdb.create () in
  Minjie.Archdb.record_counters db soc;
  Alcotest.(check (list (pair string int)))
    "persisted rows reproduce the live snapshot"
    (Xiangshan.Soc.counter_snapshot soc ~hartid:0)
    (Minjie.Archdb.final_counters db ~hartid:0)

let tests =
  [
    Alcotest.test_case "counter registry" `Quick test_registry;
    Alcotest.test_case "of_counters rejects incomplete snapshots" `Quick
      test_of_counters_missing;
    Alcotest.test_case "CPI stack sums to cycles on the whole suite" `Slow
      test_stack_sums_on_suite;
    Alcotest.test_case "counters + trace deterministic across replay" `Slow
      test_counters_replay_deterministic;
    Alcotest.test_case "commit counters match DiffTest stream (ISS REF)"
      `Slow
      (commit_counters_match Minjie.Ref_model.Iss);
    Alcotest.test_case "commit counters match DiffTest stream (NEMU REF)"
      `Slow
      (commit_counters_match Minjie.Ref_model.Nemu);
    Alcotest.test_case "verdicts identical with perf on/off" `Slow
      test_verdict_pure_under_perf;
    Alcotest.test_case "pipetrace emits well-formed Konata" `Quick
      test_pipetrace_konata;
    Alcotest.test_case "ArchDB persists final counter values" `Quick
      test_archdb_final_counters;
  ]
