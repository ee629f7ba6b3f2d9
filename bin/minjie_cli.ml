(* minjie: command-line driver for the platform.

     minjie list                         workloads and configurations
     minjie run sjeng_like --config nh   run under DiffTest verification
     minjie engines mcf_like             compare the four interpreters
     minjie checkpoint coremark_like     NEMU+SimPoint sampled evaluation
     minjie debug --inject l2-race       the §IV-C debugging workflow *)

open Cmdliner

let configs =
  List.map
    (fun (c : Xiangshan.Config.t) -> (String.lowercase_ascii c.cfg_name, c))
    Xiangshan.Config.all_presets

let config_conv =
  Arg.enum (("yqh", Xiangshan.Config.yqh) :: ("nh", Xiangshan.Config.nh) :: configs)

let all_workloads () =
  Workloads.Suite.all @ Workloads.Suite.llc_stress @ Workloads.Suite.system
  @ Workloads.Suite.smp

let find_workload name =
  match
    List.find_opt (fun w -> w.Workloads.Wl_common.wl_name = name) (all_workloads ())
  with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %s; try `minjie list`\n" name;
      exit 2

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let config_arg =
  Arg.(
    value
    & opt config_conv Xiangshan.Config.yqh
    & info [ "config"; "c" ] ~docv:"CONFIG" ~doc:"Micro-architecture preset.")

let scale_arg =
  Arg.(
    value & opt (some int) None
    & info [ "scale"; "s" ] ~docv:"N" ~doc:"Workload scale (default: small).")

let max_cycles_arg =
  Arg.(
    value & opt int 200_000_000
    & info [ "max-cycles" ] ~docv:"N" ~doc:"Cycle budget.")

(* ---- list ------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "workloads:\n";
    List.iter
      (fun (w : Workloads.Wl_common.t) ->
        Printf.printf "  %-16s %-4s mimics %s\n" w.wl_name
          (match w.group with `Int -> "int" | `Fp -> "fp")
          w.mimics)
      (all_workloads ());
    Printf.printf "\nconfigurations:\n";
    List.iter
      (fun (c : Xiangshan.Config.t) ->
        Printf.printf "  %-26s %d core(s), L2 %dKB, L3 %dKB, %s\n" c.cfg_name
          c.n_cores c.l2_kb c.l3_kb
          (Xiangshan.Config.show_dram_model c.dram))
      Xiangshan.Config.all_presets
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and configurations.")
    Term.(const run $ const ())

(* ---- run (DiffTest-verified simulation) ------------------------------- *)

let run_cmd =
  let run name cfg scale max_cycles no_difftest perf pipetrace
      (rc : Minjie.Run_config.t) =
    let w = find_workload name in
    let scale = Option.value scale ~default:w.Workloads.Wl_common.small in
    let prog = w.Workloads.Wl_common.program ~scale in
    let cfg =
      if List.mem w (Workloads.Suite.smp) && cfg.Xiangshan.Config.n_cores < 2
      then Xiangshan.Config.nh
      else cfg
    in
    let soc = Xiangshan.Soc.create ~phase_order:rc.phase_order cfg in
    Xiangshan.Soc.load_program soc prog;
    let tracers =
      match pipetrace with
      | Some _ -> Some (Xiangshan.Soc.attach_tracers soc)
      | None -> None
    in
    let t0 = Unix.gettimeofday () in
    let outcome =
      if no_difftest then begin
        let _ = Xiangshan.Soc.run ~max_cycles soc in
        match Xiangshan.Soc.exit_code soc with
        | Some c -> `Finished c
        | None -> `Timeout
      end
      else begin
        let dt = Minjie.Difftest.create ?ref_kind:rc.ref_kind ~prog soc in
        match Minjie.Difftest.run ~max_cycles dt with
        | Minjie.Difftest.Finished c -> `Finished c
        | Minjie.Difftest.Failed f -> `Failed f
        | Minjie.Difftest.Running -> `Timeout
      end
    in
    let secs = Unix.gettimeofday () -. t0 in
    (match outcome with
    | `Finished c -> Printf.printf "exit code %d\n" c
    | `Failed (f : Minjie.Rule.failure) ->
        Printf.printf "DIFFTEST FAILURE at cycle %d (rule %s): %s\n"
          f.Minjie.Rule.f_cycle f.Minjie.Rule.f_rule f.Minjie.Rule.f_msg
    | `Timeout -> Printf.printf "cycle budget exhausted\n");
    Array.iteri
      (fun i (core : Xiangshan.Core.t) ->
        let p = core.Xiangshan.Core.perf in
        Printf.printf
          "hart %d: %d instrs / %d cycles = IPC %.3f | MPKI %.1f | fused %d \
           | moves elim. %d | traps %d | interrupts %d\n"
          i p.Xiangshan.Core.p_instrs p.Xiangshan.Core.p_cycles
          (Xiangshan.Core.ipc core)
          (Xiangshan.Bpu.mpki core.Xiangshan.Core.bpu
             ~instructions:p.Xiangshan.Core.p_instrs)
          p.Xiangshan.Core.p_fused p.Xiangshan.Core.p_moves_eliminated
          p.Xiangshan.Core.p_traps p.Xiangshan.Core.p_interrupts)
      soc.Xiangshan.Soc.cores;
    Printf.printf "simulated %d cycles in %.2fs (%.0f kHz)\n"
      soc.Xiangshan.Soc.now secs
      (float_of_int soc.Xiangshan.Soc.now /. secs /. 1e3);
    if perf then
      Array.iteri
        (fun i (core : Xiangshan.Core.t) ->
          let counters = Xiangshan.Core.counter_snapshot core in
          Printf.printf "\nhart %d performance counters:\n" i;
          List.iter
            (fun (n, v) -> Printf.printf "  %-28s %12d\n" n v)
            counters;
          print_newline ();
          match Perf.Topdown.of_counters counters with
          | Error msg -> Printf.printf "top-down stack unavailable: %s\n" msg
          | Ok stack -> (
              match Perf.Topdown.check stack with
              | Error msg ->
                  Printf.printf "TOPDOWN INVARIANT VIOLATED: %s\n" msg
              | Ok () ->
                  print_string
                    (Perf.Topdown.render
                       ~label:(Printf.sprintf "hart %d" i)
                       stack)))
        soc.Xiangshan.Soc.cores;
    match (pipetrace, tracers) with
    | Some file, Some trs when Array.length trs > 0 ->
        let tr = trs.(0) in
        let oc = open_out file in
        output_string oc (Perf.Pipetrace.to_konata tr);
        close_out oc;
        Printf.printf
          "pipeline trace: %d uops recorded (last %d kept) -> %s (Konata \
           format)\n"
          (Perf.Pipetrace.recorded tr)
          (Perf.Pipetrace.live tr)
          file
    | _ -> ()
  in
  let no_difftest =
    Arg.(value & flag & info [ "no-difftest" ] ~doc:"Run without the REF.")
  in
  let perf =
    Arg.(
      value & flag
      & info [ "perf" ]
          ~doc:
            "Print the full per-hart performance-counter table and the \
             top-down CPI stack after the run.")
  in
  let pipetrace =
    Arg.(
      value
      & opt (some string) None
      & info [ "pipetrace" ] ~docv:"FILE"
          ~doc:
            "Record per-uop pipeline lifecycles in a ring buffer and write \
             the trace window to $(docv) in Konata format.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload on the cycle-level model under \
                          DiffTest.")
    Term.(
      const run $ workload_arg $ config_arg $ scale_arg $ max_cycles_arg
      $ no_difftest $ perf $ pipetrace $ Cli.run_config ())

(* ---- engines ----------------------------------------------------------- *)

let engines_cmd =
  let run name scale =
    let w = find_workload name in
    let scale = Option.value scale ~default:w.Workloads.Wl_common.small in
    let prog = w.Workloads.Wl_common.program ~scale in
    List.iter
      (fun kind ->
        let n, secs = Nemu.Engine.run_program kind prog in
        Printf.printf "%-14s %10d instrs in %6.2fs = %8.1f MIPS\n"
          (Nemu.Engine.name kind) n secs (Nemu.Engine.mips n secs))
      Nemu.Engine.all
  in
  Cmd.v
    (Cmd.info "engines" ~doc:"Compare the interpreter engines (Figure 8).")
    Term.(const run $ workload_arg $ scale_arg)

(* ---- checkpoint --------------------------------------------------------- *)

let checkpoint_cmd =
  let run name scale cfg interval k (rc : Minjie.Run_config.t) =
    let w = find_workload name in
    let scale = Option.value scale ~default:w.Workloads.Wl_common.small in
    let prog = w.Workloads.Wl_common.program ~scale in
    let ipc, results, stats =
      Checkpoint.Sampled.estimate ~interval ~max_k:k ~jobs:rc.jobs
        ~retries:rc.retries cfg prog
    in
    Printf.printf
      "%d instructions profiled, %d intervals, %d checkpoints (%.1f MIPS)\n"
      stats.gen_instructions stats.gen_intervals stats.gen_selected
      (float_of_int stats.gen_instructions /. stats.gen_seconds /. 1e6);
    List.iter
      (fun (r : Checkpoint.Sampled.sample_result) ->
        Printf.printf "  checkpoint @%-4d weight %.2f ipc %.3f\n" r.sr_index
          r.sr_weight r.sr_ipc)
      results;
    Printf.printf "weighted IPC estimate on %s: %.3f\n"
      cfg.Xiangshan.Config.cfg_name ipc
  in
  let interval =
    Arg.(value & opt int 50_000 & info [ "interval" ] ~docv:"N")
  in
  let k = Arg.(value & opt int 8 & info [ "clusters"; "k" ] ~docv:"K") in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Sampled performance evaluation with NEMU + SimPoint (§III-D3).")
    Term.(
      const run $ workload_arg $ scale_arg $ config_arg $ interval $ k
      $ Cli.run_config ~jobs:Cli.jobs_arg ())

(* ---- campaign (crash-safe fault-injection runs) -------------------------- *)

let campaign_cmd =
  let run seed smoke ((rc : Minjie.Run_config.t), journal) =
    let faults, seeds = Minjie.Campaign.grid_spec ~smoke ~seed in
    Minjie.Run_config.arm_chaos rc;
    let s =
      Minjie.Campaign.run ?faults ~seeds ?ref_kind:rc.ref_kind
        ~phase_order:rc.phase_order ~jobs:rc.jobs
        ?journal:
          (Minjie.Run_config.journal rc ~default:"minjie-campaign.journal"
             journal)
        ~resume:rc.resume ~retries:rc.retries
        ~progress:(fun c ->
          Printf.printf "  %s\n%!" (Minjie.Campaign.string_of_cell c))
        ()
    in
    Minjie.Host_chaos.disarm ();
    Printf.printf
      "\n\
       campaign: %d cells, %d detected, %d escapes, %d rule mismatches, %d \
       replay misses\n"
      s.Minjie.Campaign.total s.Minjie.Campaign.detected
      s.Minjie.Campaign.escapes s.Minjie.Campaign.rule_mismatches
      s.Minjie.Campaign.replay_misses;
    if s.Minjie.Campaign.resumed > 0 || s.Minjie.Campaign.retried > 0 then
      Printf.printf
        "(journal: %d cell(s) resumed, %d supervised re-run(s), %d \
         recovered)\n"
        s.Minjie.Campaign.resumed s.Minjie.Campaign.retried
        s.Minjie.Campaign.recovered;
    if Minjie.Campaign.failed s then exit 1
  in
  let chaos =
    Arg.(
      value
      & opt_all string []
      & info [ "chaos" ] ~docv:"CLASS"
          ~doc:
            "Arm a host-chaos class (worker-kill, eintr, short-write, \
             slow-worker, journal-enospc, or all); repeatable (default: \
             MINJIE_CHAOS).")
  in
  let chaos_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"N"
          ~doc:"Chaos schedule seed (default: MINJIE_CHAOS_SEED, else 1).")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run the fault-injection campaign with crash-safe journaling, \
          resume, supervised retries, and optional host-chaos injection.")
    Term.(
      const run
      $ Cli.seed_arg ~doc:"Base seed."
      $ Cli.smoke_arg ~doc:"3-fault subset, one seed (CI-sized grid)."
      $ Cli.harness
          ~ref_kind:(Cli.ref_arg ~doc:"REF backend (default: MINJIE_REF, else iss).")
          ~chaos:Term.(const (fun c s -> (c, s)) $ chaos $ chaos_seed)
          ())

(* ---- fuzz (coverage-guided campaign) ------------------------------------ *)

let fuzz_cmd =
  let run seed rounds cands smoke ((rc : Minjie.Run_config.t), journal) corpus
      fault =
    let base = if smoke then Fuzz.smoke else Fuzz.default in
    let p =
      {
        base with
        Fuzz.fz_seed = seed;
        fz_rounds = Option.value rounds ~default:base.Fuzz.fz_rounds;
        fz_cands = Option.value cands ~default:base.Fuzz.fz_cands;
        fz_refs =
          (match rc.ref_kind with
          | Some k -> [ k ]
          | None -> base.Fuzz.fz_refs);
        fz_fault = fault;
      }
    in
    let s =
      Fuzz.run ~p ~jobs:rc.jobs
        ?journal:
          (Minjie.Run_config.journal rc ~default:"minjie-fuzz.journal" journal)
        ~resume:rc.resume ~retries:rc.retries
        ?corpus_path:corpus
        ~progress:(fun e -> Printf.printf "  %s\n%!" (Fuzz.string_of_exec e))
        ()
    in
    Printf.printf "\n";
    List.iter
      (fun r -> Printf.printf "%s\n" (Fuzz.string_of_round r))
      s.Fuzz.fz_round_stats;
    Printf.printf
      "\nfuzz: %d exec(s), %d coverage point(s) over %d cell(s), corpus %d, \
       %d mismatch(es)\n"
      (List.length s.Fuzz.fz_execs)
      s.Fuzz.fz_points s.Fuzz.fz_cells s.Fuzz.fz_corpus s.Fuzz.fz_mismatches;
    if s.Fuzz.fz_resumed > 0 || s.Fuzz.fz_retried > 0 then
      Printf.printf
        "(journal: %d exec(s) resumed, %d supervised re-run(s), %d recovered)\n"
        s.Fuzz.fz_resumed s.Fuzz.fz_retried s.Fuzz.fz_recovered;
    if Fuzz.failed s then exit 1
  in
  let rounds =
    Arg.(
      value
      & opt (some int) None
      & info [ "rounds" ] ~docv:"N" ~doc:"Fuzz rounds (default 6; smoke 2).")
  in
  let cands =
    Arg.(
      value
      & opt (some int) None
      & info [ "cands" ] ~docv:"N"
          ~doc:"Candidates per round (default 6; smoke 3).")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:"Persist the final corpus to $(docv) (atomic write).")
  in
  let fault =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"NAME"
          ~doc:
            "Plant this fault-registry model in every run (mismatch finds \
             then reproduce through the LightSSS replay).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run the coverage-guided fuzz campaign: rounds of mutate, run, \
          coverage-merge, corpus-update over both REF backends and \
          1/2/4-hart configs, with crash-safe journaling and resume.")
    Term.(
      const run
      $ Cli.seed_arg ~doc:"Campaign seed."
      $ rounds $ cands
      $ Cli.smoke_arg
          ~doc:"CI-sized campaign: 2 rounds x 3 candidates on YQH + NH."
      $ Cli.harness
          ~ref_kind:
            (Cli.ref_arg
               ~doc:"Restrict to one REF backend (default: MINJIE_REF, else both).")
          ()
      $ corpus $ fault)

(* ---- debug (the §IV-C workflow) ----------------------------------------- *)

let debug_cmd =
  let run inject (rc : Minjie.Run_config.t) =
    let prog = Workloads.Smp.lrsc_contend ~scale:8 in
    let inject_fn soc =
      match inject with
      | Some "l2-race" -> Xiangshan.Soc.inject_l2_race_bug soc ~core:0
      | Some "skip-probe" -> Xiangshan.Soc.inject_skip_probe_bug soc
      | Some other ->
          Printf.eprintf "unknown fault %s (l2-race | skip-probe)\n" other;
          exit 2
      | None -> ()
    in
    match
      Minjie.Workflow.run_verified ?ref_kind:rc.ref_kind ~prog ~inject:inject_fn
        Xiangshan.Config.nh
    with
    | Minjie.Workflow.Verified code -> Printf.printf "verified; exit %d\n" code
    | Minjie.Workflow.Debugged r ->
        Printf.printf "failure: %s (rule %s) at cycle %d\n"
          r.first_failure.f_msg r.first_failure.f_rule r.first_failure.f_cycle;
        Printf.printf "replayed %d cycles from cycle %d; reproduced: %b\n"
          r.replay_cycles r.replay_from_cycle
          (r.replay_failure <> None);
        Format.printf "%a@." Minjie.Archdb.pp_summary r.db;
        List.iteri
          (fun i (o : Minjie.Archdb.overlap) ->
            if i < 6 then
              Printf.printf "overlap: block 0x%Lx %s acquire@%d probe@%d\n"
                o.ov_addr o.ov_node o.ov_acquire_cycle o.ov_probe_cycle)
          r.overlaps
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"FAULT" ~doc:"Inject l2-race or skip-probe.")
  in
  Cmd.v
    (Cmd.info "debug"
       ~doc:"Run the DiffTest + LightSSS + ArchDB workflow (§IV-C).")
    Term.(const run $ inject $ Cli.run_config ())

(* ---- serve (persistent warm-state simulation service) ------------------ *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket path.")

let serve_cmd =
  let run socket jobs depth batch journal resume quiet =
    let cfg =
      {
        Serve.Server.socket_path = socket;
        jobs;
        queue_depth = depth;
        batch_max = (match batch with Some b -> max 1 b | None -> max 2 (2 * jobs));
        journal_path = journal;
        resume;
        quiet;
      }
    in
    exit (Serve.Server.serve cfg)
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Pool workers for job batches.")
  in
  let depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Max queued jobs before clients get Busy.")
  in
  let batch =
    Arg.(
      value
      & opt (some int) None
      & info [ "batch" ] ~docv:"N"
          ~doc:"Max jobs dispatched per loop round (default 2*jobs).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Crash-safe job accounting journal.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Re-run journaled jobs the previous server never finished.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress per-job logs.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent simulation service: a Unix-socket job server \
          with resident warm state (assembled images, decoded superblock \
          caches, generated checkpoints), batching, backpressure, and \
          per-client fairness.")
    Term.(
      const run $ socket_arg $ jobs $ depth $ batch $ journal $ resume $ quiet)

(* ---- submit (serve client) --------------------------------------------- *)

let submit_cmd =
  let run klass socket cold workload config max_cycles max_insns interval max_k
      warmup measure faults seeds ref_kind duration tag retries fuzz_seed
      fuzz_rounds fuzz_cands =
    let split s = if s = "" then [] else String.split_on_char ',' s in
    let spec () : Serve.Proto.job_spec =
      match klass with
      | "run" ->
          Serve.Proto.Run
            {
              rn_workload = workload;
              rn_config = config;
              rn_max_cycles = max_cycles;
              rn_ref = ref_kind;
            }
      | "engine" ->
          Serve.Proto.Engine
            { en_workload = workload; en_max_insns = max_insns }
      | "checkpoint" ->
          Serve.Proto.Checkpoint
            {
              ck_workload = workload;
              ck_config = config;
              ck_interval = interval;
              ck_max_k = max_k;
              ck_warmup = warmup;
              ck_measure = measure;
            }
      | "campaign" ->
          Serve.Proto.Campaign
            {
              ca_faults = split faults;
              ca_seeds = List.map int_of_string (split seeds);
              ca_ref = ref_kind;
            }
      | "fuzz" ->
          Serve.Proto.Fuzz
            {
              fu_seed = fuzz_seed;
              fu_rounds = fuzz_rounds;
              fu_cands = fuzz_cands;
              (* "iss"/"nemu" restricts the grid; "both" (or "")
                 keeps the smoke campaign's two-backend rotation *)
              fu_ref = (if ref_kind = "both" then "" else ref_kind);
            }
      | "topdown" ->
          Serve.Proto.Topdown
            {
              td_workload = workload;
              td_config = config;
              td_max_cycles = max_cycles;
            }
      | "sleep" ->
          Serve.Proto.Sleep { sl_seconds = duration; sl_tag = tag }
      | other ->
          Printf.eprintf
            "unknown job class %s (run | engine | checkpoint | campaign | \
             fuzz | topdown | sleep | ping | stats | shutdown)\n"
            other;
          exit 2
    in
    let with_conn f =
      match socket with
      | None ->
          Printf.eprintf "submit: --socket is required (or use --cold)\n";
          exit 2
      | Some path -> (
          match Serve.Client.connect path with
          | c -> Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)
          | exception Unix.Unix_error (e, _, _) ->
              Printf.eprintf "submit: cannot connect to %s: %s\n" path
                (Unix.error_message e);
              exit 1)
    in
    match klass with
    | "ping" ->
        with_conn (fun c ->
            match Serve.Client.request c Serve.Proto.Ping with
            | Serve.Proto.Pong p ->
                Printf.printf "pong: %d pool worker(s), %d job(s) queued\n"
                  p.p_jobs p.p_queued
            | _ ->
                Printf.eprintf "unexpected reply to ping\n";
                exit 1)
    | "stats" ->
        with_conn (fun c ->
            match Serve.Client.request c Serve.Proto.Stats with
            | Serve.Proto.Stats_reply s ->
                Printf.printf
                  "jobs done %d | warm hits %d | misses %d | queued %d | \
                   clients %d\n"
                  s.st_jobs_done s.st_warm_hits s.st_warm_misses
                  s.st_queue_depth s.st_clients;
                List.iter
                  (fun (k, v) -> Printf.printf "  ewma %-32s %.4fs\n" k v)
                  s.st_ewma
            | _ ->
                Printf.eprintf "unexpected reply to stats\n";
                exit 1)
    | "shutdown" ->
        with_conn (fun c ->
            match Serve.Client.request c Serve.Proto.Shutdown with
            | Serve.Proto.Shutting_down -> Printf.printf "server shutting down\n"
            | _ ->
                Printf.eprintf "unexpected reply to shutdown\n";
                exit 1)
    | _ ->
        let spec = spec () in
        let finish (result : Serve.Proto.job_result) =
          print_string (Serve.Client.render_result result);
          match result with Serve.Proto.R_error _ -> exit 3 | _ -> exit 0
        in
        if cold then begin
          let t0 = Unix.gettimeofday () in
          let result = Serve.Server.exec_cold spec in
          Printf.eprintf "cold-start in %.3fs\n" (Unix.gettimeofday () -. t0);
          finish result
        end
        else
          with_conn (fun c ->
              let t0 = Unix.gettimeofday () in
              match Serve.Client.submit ~retries c spec with
              | Serve.Proto.Result r ->
                  Printf.eprintf "served job %d in %.3fs%s\n" r.r_id
                    (Unix.gettimeofday () -. t0)
                    (if r.r_warm then " [warm]" else "");
                  finish r.r_result
              | Serve.Proto.Busy b ->
                  Printf.eprintf "server busy (queue depth %d); try again\n"
                    b.b_depth;
                  exit 4
              | Serve.Proto.Shutting_down ->
                  Printf.eprintf "server is shutting down\n";
                  exit 4
              | Serve.Proto.Err msg ->
                  Printf.eprintf "protocol error: %s\n" msg;
                  exit 1
              | _ ->
                  Printf.eprintf "unexpected reply\n";
                  exit 1)
  in
  let klass =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CLASS")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Server socket path.")
  in
  let cold =
    Arg.(
      value & flag
      & info [ "cold" ]
          ~doc:
            "Execute in-process on the cold-start path instead of a server \
             (the byte-identity reference).")
  in
  let workload =
    Arg.(
      value & opt string "coremark_like"
      & info [ "workload"; "w" ] ~docv:"NAME"
          ~doc:
            "Workload name; engine jobs also accept \
             testgen:SEED:BLOCKS:BLOCKLEN.")
  in
  let config =
    Arg.(
      value & opt string "YQH"
      & info [ "config"; "c" ] ~docv:"NAME" ~doc:"Config preset name.")
  in
  let max_cycles =
    Arg.(
      value & opt int 400_000
      & info [ "max-cycles" ] ~docv:"N" ~doc:"Cycle budget (run/topdown).")
  in
  let max_insns =
    Arg.(
      value & opt int 50_000_000
      & info [ "max-insns" ] ~docv:"N" ~doc:"Instruction budget (engine).")
  in
  let interval =
    Arg.(
      value & opt int 20_000
      & info [ "interval" ] ~docv:"N" ~doc:"Checkpoint interval (insns).")
  in
  let max_k =
    Arg.(
      value & opt int 4
      & info [ "max-k" ] ~docv:"N" ~doc:"Max SimPoint clusters.")
  in
  let warmup =
    Arg.(
      value & opt int 5_000
      & info [ "warmup" ] ~docv:"N" ~doc:"Checkpoint warmup instructions.")
  in
  let measure =
    Arg.(
      value & opt int 10_000
      & info [ "measure" ] ~docv:"N" ~doc:"Checkpoint measured instructions.")
  in
  let faults =
    Arg.(
      value & opt string ""
      & info [ "faults" ] ~docv:"A,B,C"
          ~doc:"Campaign fault subset (empty = full registry).")
  in
  let seeds =
    Arg.(
      value & opt string "1"
      & info [ "seeds" ] ~docv:"1,2" ~doc:"Campaign seeds.")
  in
  let ref_kind =
    Arg.(
      value & opt string "iss"
      & info [ "ref" ] ~docv:"iss|nemu" ~doc:"REF backend.")
  in
  let duration =
    Arg.(
      value & opt float 0.5
      & info [ "duration" ] ~docv:"SECS" ~doc:"Sleep duration.")
  in
  let tag =
    Arg.(value & opt string "t" & info [ "tag" ] ~docv:"TAG" ~doc:"Sleep tag.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N" ~doc:"Retries on a Busy reply.")
  in
  let fuzz_seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Fuzz campaign seed.")
  in
  let fuzz_rounds =
    Arg.(
      value & opt int 2
      & info [ "rounds" ] ~docv:"N" ~doc:"Fuzz rounds (smoke-sized default).")
  in
  let fuzz_cands =
    Arg.(
      value & opt int 3
      & info [ "cands" ] ~docv:"N" ~doc:"Fuzz candidates per round.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a job to a running `minjie serve` (or execute it cold with \
          --cold).  CLASS is run | engine | checkpoint | campaign | fuzz | \
          topdown | sleep | ping | stats | shutdown.")
    Term.(
      const run $ klass $ socket $ cold $ workload $ config $ max_cycles
      $ max_insns $ interval $ max_k $ warmup $ measure $ faults $ seeds
      $ ref_kind $ duration $ tag $ retries $ fuzz_seed $ fuzz_rounds
      $ fuzz_cands)

let () =
  let doc = "MINJIE: agile RISC-V processor development platform (OCaml)" in
  (* bare `minjie` (or `minjie --help`) prints the subcommand listing
     instead of exiting silently *)
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  Cli.main
    (Cmd.group ~default
       (Cmd.info "minjie" ~doc)
       [
         list_cmd;
         run_cmd;
         engines_cmd;
         checkpoint_cmd;
         campaign_cmd;
         fuzz_cmd;
         debug_cmd;
         serve_cmd;
         submit_cmd;
       ])
