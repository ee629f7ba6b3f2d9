(* The fork-based parallel simulation pool: deterministic merging,
   crash isolation, timeout escalation, and the jobs=1 == sequential
   guarantee the campaign and sampled-simulation fan-outs rely on. *)

let mk ?(cost = 1.0) label f = { Minjie.Pool.j_label = label; j_cost = cost; j_run = f }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let payload_of = function
  | Minjie.Pool.Done v -> Some v
  | Minjie.Pool.Job_error _ | Minjie.Pool.Crashed _ | Minjie.Pool.Timed_out _
    ->
      None

let test_ordering_adversarial () =
  (* jobs submitted in one order but finishing in roughly the reverse:
     early jobs sleep longest, so completion order is adversarial to
     submission order.  The merged result list must still be the
     submission order, payloads intact.  Costs are all equal so the
     scheduler cannot reorder dispatch to rescue us. *)
  let n = 8 in
  let jobs =
    List.init n (fun i ->
        mk (Printf.sprintf "j%d" i) (fun () ->
            Unix.sleepf (0.02 *. float_of_int (n - i));
            i * i))
  in
  let results, stats = Minjie.Pool.map ~jobs:4 jobs in
  Alcotest.(check int) "all results" n (List.length results);
  List.iteri
    (fun i (r : int Minjie.Pool.result) ->
      Alcotest.(check int) "submission order" i r.Minjie.Pool.r_index;
      Alcotest.(check (option int)) "payload" (Some (i * i))
        (payload_of r.Minjie.Pool.r_outcome))
    results;
  Alcotest.(check int) "worker count" 4 stats.Minjie.Pool.p_workers;
  Alcotest.(check int) "every job accounted to a slot" n
    (Array.fold_left
       (fun a (s : Minjie.Pool.slot_stats) -> a + s.Minjie.Pool.s_jobs)
       0 stats.Minjie.Pool.p_slots);
  Alcotest.(check int) "no crashes" 0 stats.Minjie.Pool.p_crashed

let test_longest_first_scheduling () =
  (* with 2 workers and one job twice as long as the other three
     combined, longest-first dispatch keeps total wall clock near the
     long job's length; submission order still rules the output *)
  let jobs =
    [
      mk ~cost:1.0 "short0" (fun () -> Unix.sleepf 0.05; 0);
      mk ~cost:1.0 "short1" (fun () -> Unix.sleepf 0.05; 1);
      mk ~cost:10.0 "long" (fun () -> Unix.sleepf 0.3; 2);
      mk ~cost:1.0 "short2" (fun () -> Unix.sleepf 0.05; 3);
    ]
  in
  let results, stats = Minjie.Pool.map ~jobs:2 jobs in
  List.iteri
    (fun i (r : int Minjie.Pool.result) ->
      Alcotest.(check (option int)) "payload" (Some i)
        (payload_of r.Minjie.Pool.r_outcome))
    results;
  (* long job dispatched first -> pool finishes in ~0.3s, not ~0.45s
     (generous bound: the assertion is about overlap, not precision) *)
  Alcotest.(check bool)
    (Printf.sprintf "longest-first overlap (%.2fs)" stats.Minjie.Pool.p_seconds)
    true
    (stats.Minjie.Pool.p_seconds < 0.45)

let test_worker_crash_isolated () =
  let jobs =
    [
      mk "ok0" (fun () -> 10);
      mk "boom" (fun () -> Unix._exit 3);
      mk "ok1" (fun () -> 11);
      mk "raise" (fun () -> failwith "job raised");
      mk "ok2" (fun () -> 12);
    ]
  in
  let results, stats = Minjie.Pool.map ~jobs:2 jobs in
  (match (List.nth results 1).Minjie.Pool.r_outcome with
  | Minjie.Pool.Crashed msg ->
      Alcotest.(check bool) ("crash message names job: " ^ msg) true
        (contains ~sub:"boom" msg)
  | _ -> Alcotest.fail "exit 3 should surface as Crashed");
  (match (List.nth results 3).Minjie.Pool.r_outcome with
  | Minjie.Pool.Job_error msg ->
      Alcotest.(check bool) ("job error carries exception: " ^ msg) true
        (contains ~sub:"job raised" msg)
  | _ -> Alcotest.fail "raising job should surface as Job_error");
  List.iter
    (fun i ->
      Alcotest.(check (option int)) "healthy jobs unaffected" (Some (10 + i / 2))
        (payload_of (List.nth results i).Minjie.Pool.r_outcome))
    [ 0; 2; 4 ];
  Alcotest.(check int) "one crash counted" 1 stats.Minjie.Pool.p_crashed

let test_worker_killed_by_signal () =
  let jobs =
    [
      mk "ok" (fun () -> 1);
      mk "sigkill-self" (fun () ->
          Unix.kill (Unix.getpid ()) Sys.sigkill;
          2);
    ]
  in
  let results, stats = Minjie.Pool.map ~jobs:2 jobs in
  (match (List.nth results 1).Minjie.Pool.r_outcome with
  | Minjie.Pool.Crashed _ -> ()
  | _ -> Alcotest.fail "SIGKILLed worker should surface as Crashed");
  Alcotest.(check (option int)) "sibling survives" (Some 1)
    (payload_of (List.hd results).Minjie.Pool.r_outcome);
  Alcotest.(check int) "one crash" 1 stats.Minjie.Pool.p_crashed

let test_timeout_kill () =
  let t0 = Unix.gettimeofday () in
  let jobs =
    [
      mk "fast" (fun () -> 7);
      (* ignores SIGTERM, so only the SIGKILL escalation can end it *)
      mk "hang" (fun () ->
          Sys.set_signal Sys.sigterm Sys.Signal_ignore;
          Unix.sleepf 30.0;
          8);
    ]
  in
  let results, stats =
    Minjie.Pool.map ~jobs:2 ~timeout:0.3 ~kill_grace:0.2 jobs
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match (List.nth results 1).Minjie.Pool.r_outcome with
  | Minjie.Pool.Timed_out secs ->
      Alcotest.(check bool) "ran at least the timeout" true (secs >= 0.3)
  | _ -> Alcotest.fail "hung worker should surface as Timed_out");
  Alcotest.(check (option int)) "fast job done" (Some 7)
    (payload_of (List.hd results).Minjie.Pool.r_outcome);
  Alcotest.(check int) "one timeout" 1 stats.Minjie.Pool.p_timed_out;
  Alcotest.(check bool)
    (Printf.sprintf "pool returned promptly (%.2fs)" elapsed)
    true (elapsed < 5.0)

let test_jobs1_is_sequential () =
  (* jobs=1 must be the in-process path: same process (observable via
     a shared ref -- forked children could never write back), results
     in submission order *)
  let witness = ref [] in
  let jobs =
    List.init 5 (fun i ->
        mk (Printf.sprintf "s%d" i) (fun () ->
            witness := i :: !witness;
            i))
  in
  let results, stats = Minjie.Pool.map ~jobs:1 jobs in
  Alcotest.(check (list int)) "ran in-process, in order" [ 4; 3; 2; 1; 0 ]
    !witness;
  List.iteri
    (fun i (r : int Minjie.Pool.result) ->
      Alcotest.(check (option int)) "payload" (Some i)
        (payload_of r.Minjie.Pool.r_outcome))
    results;
  Alcotest.(check int) "single slot" 1
    (Array.length stats.Minjie.Pool.p_slots)

let test_parallel_equals_sequential_payloads () =
  let jobs () = List.init 12 (fun i -> mk (string_of_int i) (fun () -> i * 7)) in
  let seq, _ = Minjie.Pool.map ~jobs:1 (jobs ()) in
  let par, _ = Minjie.Pool.map ~jobs:4 (jobs ()) in
  List.iter2
    (fun (a : int Minjie.Pool.result) (b : int Minjie.Pool.result) ->
      Alcotest.(check (option int)) "same payload"
        (payload_of a.Minjie.Pool.r_outcome)
        (payload_of b.Minjie.Pool.r_outcome))
    seq par

(* set [vars] for the duration of [f], then restore what was there
   (an empty value reads as unset) *)
let with_env vars f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) vars in
  List.iter (fun (k, v) -> Unix.putenv k v) vars;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (k, v) -> Unix.putenv k (Option.value v ~default:""))
        saved)
    f

let knobs =
  [
    "MINJIE_JOBS";
    "MINJIE_RETRIES";
    "MINJIE_RESUME";
    "MINJIE_REF";
    "MINJIE_PHASE_ORDER";
    "MINJIE_CHAOS";
    "MINJIE_CHAOS_SEED";
  ]

let test_run_config_precedence () =
  let module R = Minjie.Run_config in
  let module H = Minjie.Host_chaos in
  with_env (List.map (fun k -> (k, "")) knobs) (fun () ->
      let d = R.resolve () in
      Alcotest.(check int) "default 1" 1 d.R.jobs;
      Alcotest.(check int) "default 0 retries" 0 d.R.retries;
      Alcotest.(check bool) "default no resume" false d.R.resume;
      Alcotest.(check bool) "default REF is the command's" true
        (d.R.ref_kind = None);
      Alcotest.(check bool) "default phase order" true
        (d.R.phase_order = Xiangshan.Core.Default_order);
      Alcotest.(check bool) "no chaos" true (d.R.chaos = []);
      Alcotest.(check int) "default chaos seed" 1 d.R.chaos_seed;
      Alcotest.(check (option string)) "no journal unless resuming" None
        (R.journal d ~default:"d.journal" None));
  with_env
    [
      ("MINJIE_JOBS", "3");
      ("MINJIE_RETRIES", "2");
      ("MINJIE_RESUME", "yes");
      ("MINJIE_REF", "nemu");
      ("MINJIE_PHASE_ORDER", "shuffle:9");
      ("MINJIE_CHAOS", "eintr, worker-kill");
      ("MINJIE_CHAOS_SEED", "9");
    ]
    (fun () ->
      let e = R.resolve () in
      Alcotest.(check int) "env jobs" 3 e.R.jobs;
      Alcotest.(check int) "env retries" 2 e.R.retries;
      Alcotest.(check bool) "env resume" true e.R.resume;
      Alcotest.(check bool) "env REF" true
        (e.R.ref_kind = Some Minjie.Ref_model.Nemu);
      Alcotest.(check bool) "env phase order" true
        (e.R.phase_order = Xiangshan.Core.Shuffle 9);
      Alcotest.(check bool) "env chaos classes" true
        (e.R.chaos = [ H.Eintr_storm; H.Worker_kill ]);
      Alcotest.(check int) "env chaos seed" 9 e.R.chaos_seed;
      Alcotest.(check (option string)) "resume implies the default journal"
        (Some "d.journal")
        (R.journal e ~default:"d.journal" None);
      Alcotest.(check (option string)) "explicit journal wins" (Some "x")
        (R.journal e ~default:"d.journal" (Some "x"));
      let x =
        R.resolve ~jobs:4 ~retries:0 ~resume:false ~ref_kind:Minjie.Ref_model.Iss
          ~chaos:[ H.Slow_worker ] ~chaos_seed:2 ()
      in
      Alcotest.(check int) "explicit wins" 4 x.R.jobs;
      Alcotest.(check int) "explicit retries win" 0 x.R.retries;
      Alcotest.(check bool) "explicit resume wins" false x.R.resume;
      Alcotest.(check bool) "explicit REF wins" true
        (x.R.ref_kind = Some Minjie.Ref_model.Iss);
      Alcotest.(check bool) "explicit chaos wins" true
        (x.R.chaos = [ H.Slow_worker ]);
      Alcotest.(check int) "explicit chaos seed wins" 2 x.R.chaos_seed;
      Alcotest.(check int) "clamped to 1" 1 (R.resolve ~jobs:0 ()).R.jobs);
  List.iter
    (fun (var, v) ->
      with_env [ (var, v) ] (fun () ->
          match R.resolve () with
          | _ -> Alcotest.failf "%s=%s accepted" var v
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s=%s rejected naming the variable" var v)
                true
                (String.starts_with ~prefix:var msg)))
    [
      ("MINJIE_JOBS", "0");
      ("MINJIE_JOBS", "two");
      ("MINJIE_RETRIES", "-1");
      ("MINJIE_RETRIES", "x");
      ("MINJIE_RESUME", "maybe");
      ("MINJIE_REF", "bogus");
      ("MINJIE_PHASE_ORDER", "shufle");
      ("MINJIE_PHASE_ORDER", "shuffle:x");
      ("MINJIE_CHAOS", "eintr,bogus");
      ("MINJIE_CHAOS_SEED", "x");
    ];
  (* a flag never reads its variable, malformed or not *)
  with_env [ ("MINJIE_REF", "bogus") ] (fun () ->
      Alcotest.(check bool) "--ref beats a malformed MINJIE_REF" true
        ((R.resolve ~ref_kind:Minjie.Ref_model.Nemu ()).R.ref_kind
        = Some Minjie.Ref_model.Nemu))

let test_resume_env_values () =
  List.iter
    (fun (v, want) ->
      with_env [ ("MINJIE_RESUME", v) ] (fun () ->
          Alcotest.(check bool) ("MINJIE_RESUME=" ^ v) want
            (Minjie.Run_config.resolve ()).Minjie.Run_config.resume))
    [
      ("0", false); ("false", false); ("off", false); ("no", false);
      ("1", true); ("true", true); ("on", true); ("yes", true);
    ]

(* The campaign smoke: a --jobs 2 grid over fast faults must
   reproduce the sequential cells field for field (the guarantee the
   ci.sh verdict diff rests on). *)
let test_campaign_jobs2_equals_sequential () =
  let faults = [ "csr-mtvec-corrupt"; "rob-commit-reorder" ] in
  let seq = Minjie.Campaign.run ~faults ~seeds:[ 1 ] ~jobs:1 () in
  let par = Minjie.Campaign.run ~faults ~seeds:[ 1 ] ~jobs:2 () in
  Alcotest.(check int) "same cell count" seq.Minjie.Campaign.total
    par.Minjie.Campaign.total;
  Alcotest.(check int) "zero escapes" 0 par.Minjie.Campaign.escapes;
  List.iter2
    (fun (a : Minjie.Campaign.cell) (b : Minjie.Campaign.cell) ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %s#%d identical" a.Minjie.Campaign.c_fault
           a.Minjie.Campaign.c_seed)
        true (a = b))
    seq.Minjie.Campaign.cells par.Minjie.Campaign.cells

let test_sampled_jobs2_equals_sequential () =
  let w = Workloads.Suite.find "coremark_like" in
  let prog = w.Workloads.Wl_common.program ~scale:2 in
  let cks, _ = Checkpoint.Sampled.generate ~interval:10_000 ~max_k:4 prog in
  Alcotest.(check bool) "some checkpoints" true (cks <> []);
  let seq =
    Checkpoint.Sampled.simulate_all ~warmup:1_000 ~measure:2_000 ~jobs:1
      Xiangshan.Config.yqh cks
  in
  let par =
    Checkpoint.Sampled.simulate_all ~warmup:1_000 ~measure:2_000 ~jobs:2
      Xiangshan.Config.yqh cks
  in
  Alcotest.(check bool) "identical sample results" true (seq = par)

let tests =
  [
    Alcotest.test_case "ordering: adversarial durations" `Quick
      test_ordering_adversarial;
    Alcotest.test_case "longest-expected-first scheduling" `Quick
      test_longest_first_scheduling;
    Alcotest.test_case "worker crash isolated to its job" `Quick
      test_worker_crash_isolated;
    Alcotest.test_case "worker killed by signal" `Quick
      test_worker_killed_by_signal;
    Alcotest.test_case "timeout: SIGTERM then SIGKILL" `Quick test_timeout_kill;
    Alcotest.test_case "jobs=1 is the in-process sequential path" `Quick
      test_jobs1_is_sequential;
    Alcotest.test_case "parallel payloads == sequential" `Quick
      test_parallel_equals_sequential_payloads;
    Alcotest.test_case "run-config precedence" `Quick
      test_run_config_precedence;
    Alcotest.test_case "campaign --jobs 2 == sequential cells" `Slow
      test_campaign_jobs2_equals_sequential;
    Alcotest.test_case "sampled --jobs 2 == sequential results" `Slow
      test_sampled_jobs2_equals_sequential;
    Alcotest.test_case "MINJIE_RESUME off/no do not resume" `Quick
      test_resume_env_values;
  ]
