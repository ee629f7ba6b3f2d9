(* LightSSS: snapshot/replay determinism, cost characteristics
   (fork-like vs full-image), and the two-slot manager policy. *)

let make_difftest ?ref_kind prog cfg =
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  Minjie.Difftest.create ?ref_kind ~prog soc

let test_replay_determinism () =
  (* run to cycle A, snapshot, run to B; restore and re-run: the
     restored instance must reach the same architectural state *)
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let dt = make_difftest prog Xiangshan.Config.yqh in
  let subject = Minjie.Workflow.subject_of dt in
  for _ = 1 to 3000 do
    Minjie.Difftest.tick dt
  done;
  let snap = Lightsss.snapshot subject ~cycle:3000 in
  for _ = 1 to 2000 do
    Minjie.Difftest.tick dt
  done;
  let ref_state =
    Riscv.Arch_state.copy (Minjie.Difftest.soc dt).Xiangshan.Soc.cores.(0).Xiangshan.Core.arch
  in
  (* restore and replay the same 2000 cycles *)
  let dt' = Minjie.Workflow.restore_shared dt snap in
  for _ = 1 to 2000 do
    Minjie.Difftest.tick dt'
  done;
  let replay_state =
    (Minjie.Difftest.soc dt').Xiangshan.Soc.cores.(0).Xiangshan.Core.arch
  in
  (match Riscv.Arch_state.diff ref_state replay_state with
  | None -> ()
  | Some msg -> Alcotest.failf "replay diverged: %s" msg);
  (* the original instance is unaffected by the replay *)
  (match Minjie.Difftest.status dt with
  | Minjie.Difftest.Failed f -> Alcotest.failf "original failed: %s" f.f_msg
  | _ -> ());
  Lightsss.release snap

let test_replay_microarch_dual_core () =
  (* dual-core NH: snapshot at A, run the original on to B, restore and
     replay to B.  Both harts must agree on architectural state *and*
     on every cache, BPU and top-down counter, so a predictor or cache
     table dropped from the image, or shared between the instances,
     shows up as a counter drift *)
  let prog = Workloads.Smp.lrsc_contend ~scale:4 in
  let dt = make_difftest prog Xiangshan.Config.nh in
  let subject = Minjie.Workflow.subject_of dt in
  let a = 2500 and b = 5000 in
  for _ = 1 to a do
    Minjie.Difftest.tick dt
  done;
  let snap = Lightsss.snapshot subject ~cycle:a in
  for _ = a + 1 to b do
    Minjie.Difftest.tick dt
  done;
  let soc = Minjie.Difftest.soc dt in
  let harts = Array.length soc.Xiangshan.Soc.cores in
  Alcotest.(check int) "dual-core" 2 harts;
  let view soc =
    List.init harts (fun h ->
        ( Xiangshan.Soc.counter_snapshot soc ~hartid:h,
          Riscv.Arch_state.copy soc.Xiangshan.Soc.cores.(h).Xiangshan.Core.arch
        ))
  in
  let original = view soc in
  let dt' = Minjie.Workflow.restore_shared dt snap in
  for _ = a + 1 to b do
    Minjie.Difftest.tick dt'
  done;
  let replayed = view (Minjie.Difftest.soc dt') in
  List.iteri
    (fun h ((c, st), (c', st')) ->
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "hart %d counters" h)
        c c';
      match Riscv.Arch_state.diff st st' with
      | None -> ()
      | Some msg -> Alcotest.failf "hart %d replay diverged: %s" h msg)
    (List.combine original replayed);
  Lightsss.release snap

let test_failed_snapshot_leaks_nothing () =
  (* a root that Marshal cannot serialise makes the snapshot raise; no
     page of a memory or a table may be left shared with a half-built
     snapshot, or the next write to it pays a spurious COW copy *)
  let base = 0x8000_0000L in
  let m = Riscv.Memory.create ~base ~size:(1 lsl 20) () in
  let table = Riscv.Cow.table ~slots:4096 ~init:(-1) in
  Riscv.Memory.write_u64 m base 1L;
  Riscv.Cow.set table 7 1;
  let subject =
    Lightsss.plain_subject ~memories:[ m ] ~tables:[ table ]
      ~roots:(m, table, stdout) ()
  in
  (match Lightsss.snapshot subject ~cycle:0 with
  | _ -> Alcotest.fail "marshalling a channel must raise"
  | exception Invalid_argument _ -> ());
  Riscv.Memory.reset_stats m;
  Riscv.Cow.reset_stats table;
  Riscv.Memory.write_u64 m base 2L;
  Riscv.Cow.set table 7 2;
  Alcotest.(check int) "no memory COW fault after a failed snapshot" 0
    (Riscv.Memory.stats m).Riscv.Memory.cow_faults;
  Alcotest.(check int) "no table COW fault after a failed snapshot" 0
    (Riscv.Cow.stats table).Riscv.Cow.cow_faults;
  Alcotest.(check int) "no table page shared" 0 (Riscv.Cow.shared_pages table);
  Alcotest.(check int64) "memory still attached" 2L
    (Riscv.Memory.read_u64 m base);
  Alcotest.(check int) "table still attached" 2 (Riscv.Cow.get table 7)

(* Every slot of every micro-architectural table, in enumeration
   order. *)
let tables_digest dt =
  let b = Buffer.create 4096 in
  List.iter
    (fun t ->
      for i = 0 to Riscv.Cow.slots t - 1 do
        Buffer.add_string b (string_of_int (Riscv.Cow.get t i));
        Buffer.add_char b ','
      done;
      Buffer.add_char b '|')
    (Minjie.Workflow.tables_of dt);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_restore_exact_tables () =
  (* snapshot, run 5k more cycles, then restore twice (running the
     first restored copy in between): each restored copy's cache, BPU
     and TLB tables equal the tables at snapshot time *)
  List.iter
    (fun (name, prog, cfg) ->
      let dt = make_difftest prog cfg in
      for _ = 1 to 3000 do
        Minjie.Difftest.tick dt
      done;
      let at_snapshot = tables_digest dt in
      let snap =
        Lightsss.snapshot (Minjie.Workflow.subject_of dt) ~cycle:3000
      in
      for _ = 1 to 5000 do
        Minjie.Difftest.tick dt
      done;
      Alcotest.(check bool)
        (name ^ ": the run moved the tables")
        false
        (tables_digest dt = at_snapshot);
      let first = Minjie.Workflow.restore_shared dt snap in
      Alcotest.(check string) (name ^ ": first restore") at_snapshot
        (tables_digest first);
      for _ = 1 to 2000 do
        Minjie.Difftest.tick first
      done;
      let second = Minjie.Workflow.restore_shared dt snap in
      Alcotest.(check string) (name ^ ": second restore") at_snapshot
        (tables_digest second);
      Lightsss.release snap)
    [
      ( "YQH coremark_like",
        (Workloads.Suite.find "coremark_like").program ~scale:1,
        Xiangshan.Config.yqh );
      ( "dual-core NH smp_lrsc",
        Workloads.Smp.lrsc_contend ~scale:4,
        Xiangshan.Config.nh );
    ]

(* Marshal pays per heap block, so the image's object count is the
   deterministic proxy for snapshot cost: config-sized tables (cache
   lines, predictor and TLB entries) must be copy-on-write stores kept
   out of the image, and what is left is the in-flight pipeline.  The
   budget sits above YQH mcf_like, whose uops share their predecoded
   instructions and hold their sources in fields (it was 2,000 for
   1,794 before).  The per-slot commit probes and each REF's reusable
   commit record are part of the image: they took YQH mcf_like from
   1,120 to 1,143 blocks and NH smp_lrsc from 1,062 to 1,110.  A
   snapshot blanks them, since DiffTest has already checked what they
   point at: YQH mcf_like went to 1,133 blocks and NH smp_lrsc to
   1,084.  Since the uops became ROB-resident rows (eight blocks per
   core, not a record and its boxes per in-flight uop) and DiffTest's
   pending stores a ring, YQH mcf_like is 509 blocks and NH smp_lrsc
   784; the budget stays. *)
let object_budget = 1_150

let test_image_object_budget () =
  List.iter
    (fun (name, prog, cfg, ref_kind) ->
      let dt = make_difftest ~ref_kind prog cfg in
      for _ = 1 to 20_000 do
        Minjie.Difftest.tick dt
      done;
      let snap =
        Lightsss.snapshot (Minjie.Workflow.subject_of dt) ~cycle:20_000
      in
      let n = Lightsss.image_objects snap in
      Lightsss.release snap;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d objects <= %d" name n object_budget)
        true (n <= object_budget))
    [
      ( "NH smp_lrsc, ISS REF",
        Workloads.Smp.lrsc_contend ~scale:20,
        Xiangshan.Config.nh,
        Minjie.Ref_model.Iss );
      ( "YQH mcf_like, NEMU REF",
        (Workloads.Suite.find "mcf_like").program ~scale:1,
        Xiangshan.Config.yqh,
        Minjie.Ref_model.Nemu );
    ]

let test_image_does_not_grow () =
  (* the image holds live state only: verification state that tracks
     the run's footprint (the permission scoreboard) must forget what
     no cache holds any more *)
  let prog = (Workloads.Suite.find "mcf_like").program ~scale:1 in
  let dt =
    make_difftest ~ref_kind:Minjie.Ref_model.Nemu prog Xiangshan.Config.yqh
  in
  let objects_at cycle =
    while (Minjie.Difftest.soc dt).Xiangshan.Soc.now < cycle do
      Minjie.Difftest.tick dt
    done;
    let snap = Lightsss.snapshot (Minjie.Workflow.subject_of dt) ~cycle in
    let n = Lightsss.image_objects snap in
    Lightsss.release snap;
    n
  in
  let early = objects_at 20_000 in
  let late = objects_at 400_000 in
  Alcotest.(check bool)
    (Printf.sprintf "%d objects at 400k <= %d at 20k + 500" late early)
    true
    (late <= early + 500)

let test_snapshot_is_lightweight () =
  (* fork-like: the image excludes the memory pages, so its size is
     O(metadata); the SSS baseline includes them *)
  let prog = (Workloads.Suite.find "mcf_like").program ~scale:1 in
  let dt = make_difftest prog Xiangshan.Config.yqh in
  for _ = 1 to 500_000 do
    Minjie.Difftest.tick dt
  done;
  let subject = Minjie.Workflow.subject_of dt in
  let snap = Lightsss.snapshot subject ~cycle:500_000 in
  let sss_bytes = Lightsss.full_image_snapshot subject in
  Alcotest.(check bool)
    (Printf.sprintf "light image %d << SSS image %d" snap.Lightsss.image_bytes
       sss_bytes)
    true
    (snap.Lightsss.image_bytes * 2 < sss_bytes);
  Lightsss.release snap

let test_two_slot_manager () =
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let dt = make_difftest prog Xiangshan.Config.yqh in
  let subject = Minjie.Workflow.subject_of dt in
  let mgr = Lightsss.manager ~interval:1000 subject in
  for cycle = 1 to 5500 do
    Minjie.Difftest.tick dt;
    Lightsss.tick mgr ~cycle
  done;
  Alcotest.(check int) "snapshots taken" 6 mgr.Lightsss.snapshots_taken;
  (* only two retained; the replay point is the older one *)
  Alcotest.(check int) "slots" 2 (List.length mgr.Lightsss.slots);
  match Lightsss.replay_point mgr with
  | Some s ->
      (* snapshots land at cycles 1, 1001, ..., 5001; the replay point
         is the older of the last two *)
      Alcotest.(check int) "replay at 4001" 4001 s.Lightsss.snap_cycle
  | None -> Alcotest.fail "no replay point"

(* --- edge cases around the two-slot policy --------------------------- *)

let test_replay_point_edges () =
  (* no snapshot yet -> no replay point; a single snapshot -> itself *)
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let dt = make_difftest prog Xiangshan.Config.yqh in
  let subject = Minjie.Workflow.subject_of dt in
  let mgr = Lightsss.manager ~interval:1000 subject in
  Alcotest.(check bool) "no snapshot, no replay point" true
    (Lightsss.replay_point mgr = None);
  Lightsss.tick mgr ~cycle:0;
  Alcotest.(check int) "one snapshot" 1 mgr.Lightsss.snapshots_taken;
  (match Lightsss.replay_point mgr with
  | Some s -> Alcotest.(check int) "single slot is the replay point" 0
      s.Lightsss.snap_cycle
  | None -> Alcotest.fail "single snapshot must be the replay point")

let test_failure_inside_first_interval () =
  (* the skip-probe fault is detected within ~200 cycles; with a huge
     snapshot interval the only snapshot is the one at cycle 0, and
     the workflow must replay from it and still reproduce *)
  let fault = Minjie.Fault.find "cache-skip-probe" in
  let prog = Workloads.Smp.spinlock ~scale:4 in
  match
    Minjie.Workflow.run_verified ~snapshot_interval:100_000 ~prog
      ~inject:(fun soc ->
        fault.Minjie.Fault.f_install ~seed:0
          ~trigger:fault.Minjie.Fault.f_trigger soc)
      Xiangshan.Config.nh
  with
  | Minjie.Workflow.Verified _ -> Alcotest.fail "bug escaped"
  | Minjie.Workflow.Debugged r ->
      Alcotest.(check int) "replay starts at the cycle-0 snapshot" 0
        r.replay_from_cycle;
      (match r.replay_failure with
      | Some f ->
          Alcotest.(check int) "reproduced at the same cycle"
            r.first_failure.f_cycle f.f_cycle
      | None -> Alcotest.fail "failure did not reproduce from cycle 0")

let test_two_replay_archdb_determinism () =
  (* running the same faulty cell twice must produce byte-identical
     diagnoses: same failure, same replay point, same ArchDB volume *)
  let fault = Minjie.Fault.find "cache-mshr-race" in
  let run () =
    match
      Minjie.Workflow.run_verified ~prog:(Workloads.Smp.lrsc_contend ~scale:6)
        ~inject:(fun soc ->
          fault.Minjie.Fault.f_install ~seed:0
            ~trigger:fault.Minjie.Fault.f_trigger soc)
        Xiangshan.Config.nh
    with
    | Minjie.Workflow.Verified _ -> Alcotest.fail "bug escaped"
    | Minjie.Workflow.Debugged r -> r
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same failure cycle" a.Minjie.Workflow.first_failure.f_cycle
    b.Minjie.Workflow.first_failure.f_cycle;
  Alcotest.(check string) "same rule" a.Minjie.Workflow.first_failure.f_rule
    b.Minjie.Workflow.first_failure.f_rule;
  Alcotest.(check int) "same replay point" a.Minjie.Workflow.replay_from_cycle
    b.Minjie.Workflow.replay_from_cycle;
  Alcotest.(check int) "same ArchDB commit volume"
    (Minjie.Archdb.count a.Minjie.Workflow.db.Minjie.Archdb.commits)
    (Minjie.Archdb.count b.Minjie.Workflow.db.Minjie.Archdb.commits);
  Alcotest.(check int) "same ArchDB cache-event volume"
    (Minjie.Archdb.count a.Minjie.Workflow.db.Minjie.Archdb.cache_events)
    (Minjie.Archdb.count b.Minjie.Workflow.db.Minjie.Archdb.cache_events)

let test_workflow_clean () =
  let prog = (Workloads.Suite.find "sjeng_like").program ~scale:1 in
  match Minjie.Workflow.run_verified ~prog Xiangshan.Config.yqh with
  | Minjie.Workflow.Verified code ->
      Alcotest.(check bool) "verified" true (code >= 0)
  | Minjie.Workflow.Debugged r ->
      Alcotest.failf "unexpected failure: %s" r.first_failure.f_msg

let test_workflow_debugs_injected_bug () =
  let fault = Minjie.Fault.find "cache-mshr-race" in
  let prog = Workloads.Smp.lrsc_contend ~scale:6 in
  match
    Minjie.Workflow.run_verified ~prog
      ~inject:(fun soc ->
        fault.Minjie.Fault.f_install ~seed:0
          ~trigger:fault.Minjie.Fault.f_trigger soc)
      Xiangshan.Config.nh
  with
  | Minjie.Workflow.Verified _ -> Alcotest.fail "bug escaped the workflow"
  | Minjie.Workflow.Debugged r ->
      Alcotest.(check bool) "failure reproduced in replay" true
        (r.replay_failure <> None);
      (* replay determinism: the failure reproduces at the exact cycle *)
      (match r.replay_failure with
      | Some f ->
          Alcotest.(check int) "same failure cycle" r.first_failure.f_cycle
            f.f_cycle
      | None -> ());
      (* ArchDB captured the debug-mode region of interest *)
      Alcotest.(check bool) "commits recorded" true
        (Minjie.Archdb.count r.db.Minjie.Archdb.commits > 0);
      Alcotest.(check bool) "cache transactions recorded" true
        (Minjie.Archdb.count r.db.Minjie.Archdb.cache_events > 0);
      (* the §IV-C signature: overlapping Acquire/Probe windows *)
      Alcotest.(check bool) "acquire/probe overlap found" true
        (r.overlaps <> [])

(* --- LightSSS under the one tick-until-verdict loop ------------------- *)

let show_status = function
  | Minjie.Difftest.Running -> "running"
  | Minjie.Difftest.Finished c -> Printf.sprintf "finished %d" c
  | Minjie.Difftest.Failed f -> "failed: " ^ Minjie.Rule.string_of_failure f

(* Everything a co-simulated run reports about itself once [drive]
   returns: verdict, final cycle, commits checked, rule fires and the
   merged DUT counters. *)
let run_view dt status =
  ( show_status status,
    (Minjie.Difftest.soc dt).Xiangshan.Soc.now,
    Minjie.Difftest.commits_checked dt,
    Minjie.Difftest.rule_fire_counts dt,
    Minjie.Workflow.soc_counters (Minjie.Difftest.soc dt) )

let check_same_run name (s, now, commits, fires, counters)
    (s', now', commits', fires', counters') =
  Alcotest.(check string) (name ^ ": status") s s';
  Alcotest.(check int) (name ^ ": final cycle") now now';
  Alcotest.(check int) (name ^ ": commits checked") commits commits';
  Alcotest.(check (list (pair string int))) (name ^ ": rule fires") fires fires';
  Alcotest.(check (list (pair string int))) (name ^ ": counters") counters
    counters'

let drive_cases =
  [
    ( "YQH coremark_like",
      Xiangshan.Config.yqh,
      fun () -> (Workloads.Suite.find "coremark_like").program ~scale:1 );
    ( "dual-core NH smp_spinlock",
      Xiangshan.Config.nh,
      fun () -> Workloads.Smp.spinlock ~scale:1 );
  ]

let test_drive_snapshots_pure () =
  (* snapshots every 500 cycles must not change a single observable of
     the run: LightSSS only observes the instance it copies *)
  List.iter
    (fun (name, cfg, prog) ->
      let run snapshot_interval =
        let dt = make_difftest (prog ()) cfg in
        let snapshots =
          Option.map
            (fun interval ->
              Lightsss.manager ~interval (Minjie.Workflow.subject_of dt))
            snapshot_interval
        in
        let status =
          Minjie.Workflow.drive ?snapshots ~max_cycles:50_000_000 dt
        in
        (match snapshots with
        | Some m ->
            Alcotest.(check bool) (name ^ ": snapshots taken") true
              (m.Lightsss.snapshots_taken > 1)
        | None -> ());
        run_view dt status
      in
      let plain = run None in
      let (s, _, _, _, _) as managed = run (Some 500) in
      Alcotest.(check bool) (name ^ ": verified") true
        (String.starts_with ~prefix:"finished" s);
      check_same_run name plain managed)
    drive_cases

let test_drive_budget_resumes () =
  (* [max_cycles] stops an unfinished run at exactly start + n with the
     status still Running; a second [drive] then ends where one
     uninterrupted [drive] does (table1's warm-up relies on this) *)
  List.iter
    (fun (name, cfg, prog) ->
      let whole = make_difftest (prog ()) cfg in
      let ((_, whole_now, _, _, _) as whole_view) =
        run_view whole (Minjie.Workflow.drive ~max_cycles:50_000_000 whole)
      in
      let split = make_difftest (prog ()) cfg in
      let soc = Minjie.Difftest.soc split in
      let start = soc.Xiangshan.Soc.now in
      (* half the run: the program is still going *)
      let n = (whole_now - start) / 2 in
      Alcotest.(check string) (name ^ ": stopped by the budget") "running"
        (show_status (Minjie.Workflow.drive ~max_cycles:n split));
      Alcotest.(check int) (name ^ ": stopped at start + n") (start + n)
        soc.Xiangshan.Soc.now;
      let resumed =
        run_view split (Minjie.Workflow.drive ~max_cycles:50_000_000 split)
      in
      check_same_run name whole_view resumed)
    drive_cases

(* A restored instance compares every hart's state at its first tick.
   The poke here changes the REF, outside any commit, and YQH
   coremark_like retires nothing in cycle 3002, so nothing but the
   restore makes that tick compare; the failure is reported there, as
   when every cycle was compared. *)
let test_restore_compares_first_tick () =
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let dt = make_difftest prog Xiangshan.Config.yqh in
  let subject = Minjie.Workflow.subject_of dt in
  for _ = 1 to 3001 do
    Minjie.Difftest.tick dt
  done;
  let snap = Lightsss.snapshot subject ~cycle:3001 in
  for _ = 1 to 500 do
    Minjie.Difftest.tick dt
  done;
  let dt' = Minjie.Workflow.restore_shared dt snap in
  let r = (Minjie.Difftest.refs dt').(0) in
  r.Minjie.Ref_model.patch_reg 9 (Int64.add (r.Minjie.Ref_model.get_reg 9) 1L);
  Minjie.Difftest.tick dt';
  (match Minjie.Difftest.status dt' with
  | Minjie.Difftest.Failed f ->
      Alcotest.(check (pair string int))
        "rule and cycle" ("state-compare", 3002)
        (f.Minjie.Rule.f_rule, f.Minjie.Rule.f_cycle);
      Alcotest.(check string)
        "message" "DUT vs REF: x9(s1): 0x0 vs 0x1" f.Minjie.Rule.f_msg
  | Minjie.Difftest.Finished _ | Minjie.Difftest.Running ->
      Alcotest.fail "REF poke after the restore not caught");
  Lightsss.release snap

let tests =
  [
    Alcotest.test_case "snapshot/replay determinism" `Slow
      test_replay_determinism;
    Alcotest.test_case "dual-core micro-architectural replay" `Slow
      test_replay_microarch_dual_core;
    Alcotest.test_case "snapshot is fork-like lightweight" `Quick
      test_snapshot_is_lightweight;
    Alcotest.test_case "failed snapshot leaks no page share" `Quick
      test_failed_snapshot_leaks_nothing;
    Alcotest.test_case "image object budget" `Quick test_image_object_budget;
    Alcotest.test_case "image does not grow with run length" `Slow
      test_image_does_not_grow;
    Alcotest.test_case "restored tables equal the snapshot's" `Slow
      test_restore_exact_tables;
    Alcotest.test_case "two-slot manager policy" `Quick test_two_slot_manager;
    Alcotest.test_case "replay-point edge cases" `Quick test_replay_point_edges;
    Alcotest.test_case "failure inside the first interval" `Slow
      test_failure_inside_first_interval;
    Alcotest.test_case "two-replay ArchDB determinism" `Slow
      test_two_replay_archdb_determinism;
    Alcotest.test_case "drive: snapshots change no observable" `Slow
      test_drive_snapshots_pure;
    Alcotest.test_case "drive: a cycle budget stops and resumes" `Slow
      test_drive_budget_resumes;
    Alcotest.test_case "workflow: clean run verifies" `Slow test_workflow_clean;
    Alcotest.test_case "workflow: debugs the injected L2 bug (§IV-C)" `Slow
      test_workflow_debugs_injected_bug;
    Alcotest.test_case "a restored instance compares at its first tick" `Quick
      test_restore_compares_first_tick;
  ]
