(* The host-chaos injection suite: every armed fault class actually
   fires against the pool/journal hooks, and the recovery machinery
   (EINTR/short-write retry loops, supervised retries, journal
   degradation) delivers results identical to the clean run. *)

let mk ?(cost = 1.0) label f =
  { Minjie.Pool.j_label = label; j_cost = cost; j_run = f }

let with_chaos ?slow_delay ~seed classes f =
  Minjie.Host_chaos.arm ?slow_delay ~seed classes;
  Fun.protect ~finally:Minjie.Host_chaos.disarm f

let payload_of = function
  | Minjie.Pool.Done v -> Some v
  | _ -> None

let test_determinism () =
  (* the same seed must plan the same fates, run after run *)
  let labels = List.init 32 (fun i -> Printf.sprintf "cell%d" i) in
  let fates seed =
    with_chaos ~seed [ Minjie.Host_chaos.Worker_kill ] (fun () ->
        List.map
          (fun l -> Minjie.Host_chaos.worker_fate ~label:l ~attempt:0)
          labels)
  in
  Alcotest.(check bool) "seed 5 reproducible" true (fates 5 = fates 5);
  Alcotest.(check bool) "seeds differ" true (fates 5 <> fates 6);
  (* attempt > 0 is always clean, whatever the schedule *)
  with_chaos ~seed:5 [ Minjie.Host_chaos.Worker_kill ] (fun () ->
      List.iter
        (fun l ->
          if Minjie.Host_chaos.worker_fate ~label:l ~attempt:1
             <> Minjie.Host_chaos.Run
          then Alcotest.failf "retry of %s not spared" l)
        labels)

let test_eintr_storm_pool () =
  (* a bounded synthetic EINTR storm on every pipe read/write/waitpid:
     the pool's retry loops must deliver every result unscathed *)
  let jobs = List.init 6 (fun i -> mk (Printf.sprintf "e%d" i) (fun () -> i * 3)) in
  with_chaos ~seed:1 [ Minjie.Host_chaos.Eintr_storm ] (fun () ->
      let results, stats = Minjie.Pool.map ~jobs:2 jobs in
      List.iteri
        (fun i r ->
          Alcotest.(check (option int))
            (Printf.sprintf "job %d survived the storm" i)
            (Some (i * 3))
            (payload_of r.Minjie.Pool.r_outcome))
        results;
      Alcotest.(check int) "no crashes" 0 stats.Minjie.Pool.p_crashed;
      (* the storm actually hit this process *)
      match List.assoc_opt "eintr" (Minjie.Host_chaos.fired ()) with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.fail "no synthetic EINTRs fired")

let test_short_writes_pool () =
  (* clamped partial writes force the write_all continuation path;
     large payloads must still arrive byte-perfect *)
  let big i = String.init 40_000 (fun j -> Char.chr ((i + j) land 0xff)) in
  let jobs = List.init 4 (fun i -> mk (Printf.sprintf "s%d" i) (fun () -> big i)) in
  with_chaos ~seed:1 [ Minjie.Host_chaos.Short_write ] (fun () ->
      let results, _ = Minjie.Pool.map ~jobs:2 jobs in
      List.iteri
        (fun i r ->
          match payload_of r.Minjie.Pool.r_outcome with
          | Some s when s = big i -> ()
          | Some _ -> Alcotest.failf "job %d payload corrupted" i
          | None -> Alcotest.failf "job %d failed under short writes" i)
        results)

let test_worker_kill_converges () =
  (* find a seed whose schedule kills at least one of our labels, then
     prove supervised retries converge every job to Done *)
  let labels = List.init 8 (fun i -> Printf.sprintf "victim%d" i) in
  let seed =
    let rec hunt s =
      if s > 64 then Alcotest.fail "no killing seed found"
      else if
        with_chaos ~seed:s [ Minjie.Host_chaos.Worker_kill ] (fun () ->
            List.exists
              (fun l ->
                Minjie.Host_chaos.worker_fate ~label:l ~attempt:0
                <> Minjie.Host_chaos.Run)
              labels)
      then s
      else hunt (s + 1)
    in
    hunt 1
  in
  with_chaos ~seed [ Minjie.Host_chaos.Worker_kill ] (fun () ->
      let victims =
        List.length
          (List.filter
             (fun l ->
               Minjie.Host_chaos.worker_fate ~label:l ~attempt:0
               <> Minjie.Host_chaos.Run)
             labels)
      in
      let jobs = List.mapi (fun i l -> mk l (fun () -> i * 11)) labels in
      let results, _, rep =
        Minjie.Supervisor.map ~jobs:2
          ~policy:{ Minjie.Supervisor.default_policy with sp_retries = 2 }
          jobs
      in
      List.iteri
        (fun i r ->
          Alcotest.(check (option int))
            (Printf.sprintf "job %d converged" i)
            (Some (i * 11))
            (payload_of r.Minjie.Pool.r_outcome))
        results;
      Alcotest.(check int) "every victim recovered" victims
        rep.Minjie.Supervisor.sup_recovered)

let test_slow_worker_times_out_then_converges () =
  (* a stalled worker fires the pool's timeout escalation; the retry
     (spared by the schedule) converges *)
  let labels = List.init 16 (fun i -> Printf.sprintf "slow%d" i) in
  with_chaos ~slow_delay:5.0 ~seed:1 [ Minjie.Host_chaos.Slow_worker ]
    (fun () ->
      let stalled =
        List.filter
          (fun l ->
            match Minjie.Host_chaos.worker_fate ~label:l ~attempt:0 with
            | Minjie.Host_chaos.Stall _ -> true
            | _ -> false)
          labels
      in
      if stalled = [] then Alcotest.fail "schedule stalled nothing";
      (* one stalled label and one clean one keep the test fast *)
      let clean =
        List.find
          (fun l ->
            Minjie.Host_chaos.worker_fate ~label:l ~attempt:0
            = Minjie.Host_chaos.Run)
          labels
      in
      let jobs = [ mk (List.hd stalled) (fun () -> 1); mk clean (fun () -> 2) ] in
      let results, _, rep =
        Minjie.Supervisor.map ~jobs:2 ~timeout:0.4
          ~policy:{ Minjie.Supervisor.default_policy with sp_retries = 1 }
          jobs
      in
      List.iter
        (fun r ->
          match r.Minjie.Pool.r_outcome with
          | Minjie.Pool.Done _ -> ()
          | _ -> Alcotest.failf "%s did not converge" r.Minjie.Pool.r_label)
        results;
      Alcotest.(check int) "the stall was retried" 1
        rep.Minjie.Supervisor.sup_recovered)

let test_journal_enospc_degrades () =
  (* the first append past the header fails ENOSPC-shaped: the journal
     must warn and degrade, never abort the run *)
  let path = Filename.temp_file "minjie-test-chaos" ".jnl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      with_chaos ~seed:1 [ Minjie.Host_chaos.Journal_enospc ] (fun () ->
          let j, _ = Minjie.Journal.open_ ~path ~key:"k" in
          Minjie.Journal.append j 100;
          Alcotest.(check bool) "first append fine" true
            (Minjie.Journal.active j);
          Minjie.Journal.append j 200;
          Alcotest.(check bool) "degraded after ENOSPC" false
            (Minjie.Journal.active j);
          (* further appends are silent no-ops, not crashes *)
          Minjie.Journal.append j 300;
          Minjie.Journal.close j);
      let _, (back : int list) = Minjie.Journal.scan ~path in
      Alcotest.(check (list int)) "valid prefix survived" [ 100 ] back)

let smoke_faults = [ "csr-mtvec-corrupt"; "rob-commit-reorder"; "lsu-sb-drop" ]

let test_campaign_verdict_identity_under_chaos () =
  (* the headline guarantee: worker kills + EINTR storms + short
     writes together cannot change a single campaign verdict *)
  let clean =
    Minjie.Campaign.run ~faults:smoke_faults ~seeds:[ 1 ]
      ~ref_kind:Minjie.Ref_model.Iss ()
  in
  let chaotic =
    with_chaos ~seed:1
      [
        Minjie.Host_chaos.Worker_kill;
        Minjie.Host_chaos.Eintr_storm;
        Minjie.Host_chaos.Short_write;
      ]
      (fun () ->
        Minjie.Campaign.run ~faults:smoke_faults ~seeds:[ 1 ]
          ~ref_kind:Minjie.Ref_model.Iss ~jobs:2 ~retries:2 ())
  in
  Alcotest.(check bool) "cells structurally equal" true
    (chaotic.Minjie.Campaign.cells = clean.Minjie.Campaign.cells);
  (* No_sharing canonicalises: pool-returned cells lack the
     inter-cell string sharing of in-process ones *)
  Alcotest.(check bool) "cells byte-identical" true
    (Marshal.to_string chaotic.Minjie.Campaign.cells [ Marshal.No_sharing ]
    = Marshal.to_string clean.Minjie.Campaign.cells [ Marshal.No_sharing ])

let test_faults_not_retried_away () =
  (* the flake classifier must never launder a real microarchitectural
     fault: a detected cell is a successful Done result, so even an
     absurd retry budget leaves the detection verdict intact *)
  let s =
    Minjie.Campaign.run ~faults:smoke_faults ~seeds:[ 1 ]
      ~ref_kind:Minjie.Ref_model.Iss ~jobs:2 ~retries:5 ()
  in
  Alcotest.(check int) "every fault still detected"
    (List.length smoke_faults)
    s.Minjie.Campaign.detected;
  Alcotest.(check int) "no escapes" 0 s.Minjie.Campaign.escapes;
  Alcotest.(check int) "nothing was retried" 0 s.Minjie.Campaign.retried

(* The MINJIE_CHAOS / MINJIE_CHAOS_SEED plan, resolved by Run_config. *)
let test_env_plan () =
  let module R = Minjie.Run_config in
  let plan chaos seed =
    Unix.putenv "MINJIE_CHAOS" chaos;
    Unix.putenv "MINJIE_CHAOS_SEED" seed;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "MINJIE_CHAOS" "";
        Unix.putenv "MINJIE_CHAOS_SEED" "")
      (fun () ->
        let c = R.resolve () in
        (c.R.chaos_seed, c.R.chaos))
  in
  (match plan "" "" with
  | _, [] -> ()
  | _ -> Alcotest.fail "no env, yet a plan");
  match plan "eintr,worker-kill" "9" with
  | 9, [ Minjie.Host_chaos.Eintr_storm; Minjie.Host_chaos.Worker_kill ] -> ()
  | _, [] -> Alcotest.fail "env plan not picked up"
  | _ -> Alcotest.fail "wrong plan parsed"

let tests =
  [
    Alcotest.test_case "schedules are deterministic" `Quick test_determinism;
    Alcotest.test_case "pool survives EINTR storm" `Quick
      test_eintr_storm_pool;
    Alcotest.test_case "pool survives short writes" `Quick
      test_short_writes_pool;
    Alcotest.test_case "worker kills converge under retry" `Quick
      test_worker_kill_converges;
    Alcotest.test_case "slow worker times out then converges" `Quick
      test_slow_worker_times_out_then_converges;
    Alcotest.test_case "journal degrades on ENOSPC" `Quick
      test_journal_enospc_degrades;
    Alcotest.test_case "campaign verdict identical under chaos" `Quick
      test_campaign_verdict_identity_under_chaos;
    Alcotest.test_case "real faults are not retried away" `Quick
      test_faults_not_retried_away;
    Alcotest.test_case "MINJIE_CHAOS env plan" `Quick test_env_plan;
  ]
