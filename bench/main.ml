(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md for the experiment index and
   EXPERIMENTS.md for paper-vs-measured numbers).

     dune exec bench/main.exe -- all        -- everything, scaled down
     dune exec bench/main.exe -- fig8       -- one experiment
     dune exec bench/main.exe -- all --big  -- full scales (slow)
     dune exec bench/main.exe -- --help     -- experiment + flag listing

   Absolute numbers are not expected to match the paper (the substrate
   is an OCaml simulator, not the authors' testbed); the shape --
   orderings, ratios, crossovers -- is the reproduction target, and
   each section prints the paper's number next to the measured one. *)

(* The command line, parsed once by Cmdliner at the end of this file
   and handed to every experiment. *)
type opts = {
  big : bool; (* full workload scales (slow) *)
  smoke : bool; (* CI-sized grids *)
  seed : int; (* campaign, fuzz and chaos base seed *)
  perf : bool; (* campaign: attach pipeline tracers *)
  rc : Minjie.Run_config.t;
  journal : string option; (* --journal, before its per-experiment default *)
  json : string option;
}

(* set by an experiment whose verdict failed: the run exits 1 *)
let failed = ref false

(* ---------------------------------------------------------------- *)
(* machine-readable output: --json <file> collects one flat record   *)
(* per measurement (engine runs, geomeans, snapshot costs) so CI and *)
(* regression tooling can diff numbers without scraping the tables   *)
(* ---------------------------------------------------------------- *)

module Json = struct
  type t =
    | Obj of (string * t) list
    | Arr of t list
    | Str of string
    | Num of float
    | Int of int
    | Bool of bool

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec write buf indent = function
    | Str s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (escape s))
    | Num f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string buf (Printf.sprintf "%.1f" f)
        else Buffer.add_string buf (Printf.sprintf "%.6g" f)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr xs ->
        let pad = String.make (indent + 2) ' ' in
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf pad;
            write buf (indent + 2) x)
          xs;
        Buffer.add_string buf "\n";
        Buffer.add_string buf (String.make indent ' ');
        Buffer.add_string buf "]"
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
        let pad = String.make (indent + 2) ' ' in
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf pad;
            Buffer.add_string buf (Printf.sprintf "\"%s\": " (escape k));
            write buf (indent + 2) v)
          kvs;
        Buffer.add_string buf "\n";
        Buffer.add_string buf (String.make indent ' ');
        Buffer.add_string buf "}"

  let to_string t =
    let buf = Buffer.create 4096 in
    write buf 0 t;
    Buffer.add_char buf '\n';
    Buffer.contents buf
end

let json_records : Json.t list ref = ref []
let record r = json_records := Json.Obj r :: !json_records

let record_engine_run ~experiment ~group ~workload ~engine
    (s : Nemu.Engine.stats) =
  record
    [
      ("experiment", Json.Str experiment);
      ("group", Json.Str group);
      ("workload", Json.Str workload);
      ("engine", Json.Str engine);
      ("insns", Json.Int s.Nemu.Engine.insns);
      ("seconds", Json.Num s.Nemu.Engine.seconds);
      ("mips", Json.Num (Nemu.Engine.mips s.Nemu.Engine.insns s.Nemu.Engine.seconds));
      ("uop_flushes", Json.Int s.Nemu.Engine.flushes);
      ("uop_slow_lookups", Json.Int s.Nemu.Engine.slow_lookups);
      ("uop_compiled", Json.Int s.Nemu.Engine.compiled);
      ("uop_evictions", Json.Int s.Nemu.Engine.evictions);
      ("uop_recompiles", Json.Int s.Nemu.Engine.recompiles);
    ]

(* Every emitter that wants host context uses this one helper, so the
   top-level header and any per-experiment host record carry the same
   fields -- static per host, never wall-clock, so the CI byte-diff
   contracts keep holding *)
let host_fields () =
  [
    ("nproc", Json.Int (Minjie.Pool.host_cores ()));
    ("ocaml_version", Json.Str Sys.ocaml_version);
    ("os_type", Json.Str Sys.os_type);
    ("word_size", Json.Int Sys.word_size);
  ]

let write_json o =
  match o.json with
  | None -> ()
  | Some path ->
      let doc =
        Json.Obj
          [
            ("schema", Json.Str "minjie-bench-v1");
            ("big", Json.Bool o.big);
            (* re-runs are only comparable on a known substrate: a
               1-core host serialises the pooled fan-outs, and a
               different compiler changes absolute MIPS *)
            ("host", Json.Obj (host_fields ()));
            ("experiments", Json.Arr (List.rev !json_records));
          ]
      in
      (* atomic (temp + fsync + rename): a killed run can never leave
         a truncated or missing JSON once this returns *)
      Minjie.Journal.atomic_write_file ~path (Json.to_string doc);
      Printf.printf "\n[json] wrote %d records to %s\n"
        (List.length !json_records) path

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let wl_scale o (w : Workloads.Wl_common.t) = if o.big then w.big else w.small

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let geomean = function
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log (max 1e-9 x)) 0.0 xs
        /. float_of_int (List.length xs))

(* Copy-on-write activity since the stats were last reset: memory
   faults on the DUT memory, faults summed over the tables, and the
   table pages still shared with a retained snapshot. *)
type cow_counts = {
  cow_faults : int;
  table_cow_faults : int;
  table_pages_shared : int;
}

let cow_counts mem tables =
  let sum f = List.fold_left (fun n t -> n + f t) 0 tables in
  {
    cow_faults = (Riscv.Memory.stats mem).Riscv.Memory.cow_faults;
    table_cow_faults =
      sum (fun t -> (Riscv.Cow.stats t).Riscv.Cow.cow_faults);
    table_pages_shared = sum Riscv.Cow.shared_pages;
  }

(* ---------------------------------------------------------------- *)
(* Table I + §III-C4: snapshot schemes and their costs               *)
(* ---------------------------------------------------------------- *)

let bench_table1 o =
  section "Table I: snapshot schemes for software RTL-simulation";
  Printf.printf "%-30s %-10s %-12s %-16s\n" "scheme" "in-memory" "incremental"
    "circuit-agnostic";
  List.iter
    (fun (s : Lightsss.scheme) ->
      Printf.printf "%-30s %-10s %-12s %-16s\n" s.scheme_name
        (if s.in_memory then "yes" else "no")
        (if s.incremental then "yes" else "no")
        (if s.circuit_agnostic then "yes" else "no"))
    Lightsss.schemes;
  (* §III-C4 cost microbenchmark: fork()-like vs SSS full image.
     Paper: fork() = 535us, SSS = 3.671s. *)
  let prog = (Workloads.Suite.find "mcf_like").program ~scale:1 in
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  let dt = Minjie.Difftest.create ?ref_kind:o.rc.ref_kind ~prog soc in
  let warm = if o.big then 500_000 else 150_000 in
  ignore (Minjie.Workflow.drive ~max_cycles:warm dt);
  let subject = Minjie.Workflow.subject_of dt in
  let snap, light_t = time (fun () -> Lightsss.snapshot subject ~cycle:warm) in
  let sss_mem_bytes, sss_mem_t =
    time (fun () -> Lightsss.full_image_snapshot subject)
  in
  let _, sss_file_t =
    time (fun () -> Lightsss.full_image_snapshot ~to_file:true subject)
  in
  (* the lazy side of the snapshot: COW faults over the next interval *)
  let mem = soc.Xiangshan.Soc.plat.Riscv.Platform.mem in
  Riscv.Memory.reset_stats mem;
  List.iter Riscv.Cow.reset_stats subject.Lightsss.tables;
  ignore (Minjie.Workflow.drive ~max_cycles:2_000 dt);
  let cow = cow_counts mem subject.Lightsss.tables in
  Lightsss.release snap;
  record
    [
      ("experiment", Json.Str "table1");
      ("group", Json.Str "snapshot-cost");
      ("lightsss_ms", Json.Num (1000. *. light_t));
      ("lightsss_image_kb", Json.Int (snap.Lightsss.image_bytes / 1024));
      ("lightsss_image_objects", Json.Int (Lightsss.image_objects snap));
      ("cow_faults", Json.Int cow.cow_faults);
      ("table_cow_faults", Json.Int cow.table_cow_faults);
      ("table_pages_shared", Json.Int cow.table_pages_shared);
      ("livesim_full_mem_ms", Json.Num (1000. *. sss_mem_t));
      ("livesim_image_kb", Json.Int (sss_mem_bytes / 1024));
      ("sss_to_file_ms", Json.Num (1000. *. sss_file_t));
      ("lightsss_vs_sss_speedup", Json.Num (sss_file_t /. max 1e-9 light_t));
    ];
  Printf.printf
    "\n\
     snapshot cost (paper: fork 535us vs SSS 3.671s):\n\
     \  LightSSS (page tables + metadata) : %8.3f ms (image %d KB, %d objects)\n\
     \    next 2000 cycles: COW faults %d memory + %d table, %d table pages \
     still shared\n\
     \  LiveSim-like (full in-memory)     : %8.3f ms (image %d KB)\n\
     \  SSS (full image through a file)   : %8.3f ms\n\
     \  LightSSS vs SSS-to-file speedup   : %8.1fx\n"
    (1000. *. light_t)
    (snap.Lightsss.image_bytes / 1024)
    (Lightsss.image_objects snap)
    cow.cow_faults cow.table_cow_faults cow.table_pages_shared
    (1000. *. sss_mem_t) (sss_mem_bytes / 1024) (1000. *. sss_file_t)
    (sss_file_t /. max 1e-9 light_t)

(* ---------------------------------------------------------------- *)
(* Figure 6: simulation time vs LightSSS snapshot interval           *)
(* ---------------------------------------------------------------- *)

let run_with_interval o cfg prog interval =
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  let dt = Minjie.Difftest.create ?ref_kind:o.rc.ref_kind ~prog soc in
  let mgr =
    Option.map
      (fun i -> Lightsss.manager ~interval:i (Minjie.Workflow.subject_of dt))
      interval
  in
  let _, secs =
    time (fun () -> Minjie.Workflow.drive ?snapshots:mgr ~max_cycles:max_int dt)
  in
  ( secs,
    Option.map (fun m -> m.Lightsss.snapshots_taken) mgr,
    cow_counts soc.Xiangshan.Soc.plat.Riscv.Platform.mem
      (Minjie.Workflow.tables_of dt) )

let bench_fig6 o =
  section
    "Figure 6: simulation time with LightSSS at different snapshot intervals";
  Printf.printf
    "(paper: time is barely affected by the existence or interval of \
     snapshots)\n\n";
  let cases =
    [
      ( "single-core (coremark_like, YQH)",
        Xiangshan.Config.yqh,
        (Workloads.Suite.find "coremark_like").program
          ~scale:(if o.big then 8 else 2) );
      ( "dual-core (smp_spinlock, NH)",
        Xiangshan.Config.nh,
        Workloads.Smp.spinlock ~scale:(if o.big then 16 else 4) );
    ]
  in
  let intervals = [ None; Some 2_000; Some 10_000; Some 40_000 ] in
  List.iter
    (fun (name, cfg, prog) ->
      Printf.printf "%s:\n" name;
      List.iter
        (fun interval ->
          let secs, snaps, cow = run_with_interval o cfg prog interval in
          record
            [
              ("experiment", Json.Str "fig6");
              ("case", Json.Str name);
              (* 0 = snapshots off *)
              ("interval", Json.Int (Option.value interval ~default:0));
              ("seconds", Json.Num secs);
              ( "snapshots",
                Json.Int (Option.value snaps ~default:0) );
              ("cow_faults", Json.Int cow.cow_faults);
              ("table_cow_faults", Json.Int cow.table_cow_faults);
              ("table_pages_shared", Json.Int cow.table_pages_shared);
            ];
          Printf.printf
            "  interval %-9s : %7.2f s   (snapshots %-4s cow-faults %d \
             memory + %d table, %d table pages shared)\n"
            (match interval with
            | None -> "off"
            | Some i -> string_of_int i ^ "cyc")
            secs
            (match snaps with None -> "-" | Some n -> string_of_int n)
            cow.cow_faults cow.table_cow_faults cow.table_pages_shared)
        intervals;
      print_newline ())
    cases

(* ---------------------------------------------------------------- *)
(* Figure 8: interpreter performance (MIPS)                          *)
(* ---------------------------------------------------------------- *)

let bench_fig8 o =
  section "Figure 8: interpreter performance (MIPS)";
  Printf.printf
    "(paper: NEMU 733 MIPS vs Spike 142 on SPECint = 5.16x; 7.71x on SPECfp \
     where Spike pays SoftFloat)\n\n";
  let max_insns = if o.big then 400_000_000 else 40_000_000 in
  (* MIPS is a pure-throughput measure and host scheduler / frequency
     noise only ever subtracts from it, so each cell is the best of
     [reps] runs (every engine gets the same treatment) *)
  let reps = 3 in
  let header =
    Printf.sprintf "%-15s %12s %12s %14s %14s" "workload" "NEMU" "Spike-like"
      "QEMU-TCI-like" "Dromajo-like"
  in
  (* each rep is one pool job (fork-isolated when --jobs > 1); the
     best-of merge below is order-independent, and with jobs=1 the
     pool degenerates to the original in-process rep loop *)
  let run_reps label kind wl_name prog =
    let rep_jobs =
      List.init reps (fun r ->
          {
            Minjie.Pool.j_label = Printf.sprintf "%s/%s#%d" wl_name label r;
            j_cost = 1.0;
            j_run =
              (fun () -> Nemu.Engine.run_program_stats ~max_insns kind prog);
          })
    in
    let results, _ = Minjie.Pool.map ~jobs:(o.rc.jobs) rep_jobs in
    List.filter_map
      (fun (r : Nemu.Engine.stats Minjie.Pool.result) ->
        match r.Minjie.Pool.r_outcome with
        | Minjie.Pool.Done s -> Some s
        | Minjie.Pool.Job_error msg | Minjie.Pool.Crashed msg ->
            Printf.eprintf "bench: dropping rep %s: %s\n%!"
              r.Minjie.Pool.r_label msg;
            None
        | Minjie.Pool.Timed_out secs ->
            Printf.eprintf "bench: dropping rep %s: timed out after %.1fs\n%!"
              r.Minjie.Pool.r_label secs;
            None)
      results
  in
  let run_row group_name per_engine (wl_name : string) prog =
    let mips =
      List.map
        (fun kind ->
          let label = Nemu.Engine.name kind in
          let best = ref None in
          List.iter
            (fun s ->
              let m =
                Nemu.Engine.mips s.Nemu.Engine.insns s.Nemu.Engine.seconds
              in
              match !best with
              | Some (bm, _) when bm >= m -> ()
              | _ -> best := Some (m, s))
            (run_reps label kind wl_name prog);
          let m, s = Option.get !best in
          record_engine_run ~experiment:"fig8" ~group:group_name
            ~workload:wl_name ~engine:label s;
          let prev =
            Option.value (Hashtbl.find_opt per_engine label) ~default:[]
          in
          Hashtbl.replace per_engine label (m :: prev);
          m)
        Nemu.Engine.all
    in
    match mips with
    | [ a; b; c; d ] ->
        Printf.printf "%-15s %12.1f %12.1f %14.1f %14.1f\n" wl_name a b c d
    | _ -> ()
  in
  let finish_group group_name per_engine =
    let g label =
      geomean (Option.value (Hashtbl.find_opt per_engine label) ~default:[])
    in
    let nemu = g "NEMU" and spike = g "Spike-like" in
    Printf.printf "%-15s %12.1f %12.1f %14.1f %14.1f\n" "geomean" nemu spike
      (g "QEMU-TCI-like")
      (g "Dromajo-like");
    record
      [
        ("experiment", Json.Str "fig8");
        ("group", Json.Str group_name);
        ("workload", Json.Str "geomean");
        ("nemu_mips", Json.Num nemu);
        ("spike_like_mips", Json.Num spike);
        ("qemu_tci_like_mips", Json.Num (g "QEMU-TCI-like"));
        ("dromajo_like_mips", Json.Num (g "Dromajo-like"));
        ("nemu_vs_spike", Json.Num (nemu /. max 1e-9 spike));
      ];
    Printf.printf "NEMU / Spike-like ratio: %.2fx\n\n" (nemu /. spike)
  in
  (* MIPS is a steady-state measure: grow the workload scale until the
     run is long enough that compile/startup costs are amortised, so
     tiny kernels don't report warm-up throughput *)
  let min_insns = if o.big then 20_000_000 else 2_000_000 in
  let calibrate (w : Workloads.Wl_common.t) =
    let rec go scale tries =
      let prog = w.program ~scale in
      let s = Nemu.Engine.run_program_stats ~max_insns Nemu.Engine.Nemu prog in
      if s.Nemu.Engine.insns >= min_insns || tries = 0 then prog
      else go (scale * 4) (tries - 1)
    in
    go (wl_scale o w) 6
  in
  let run_group name group =
    Printf.printf "%s\n%s\n" name header;
    let per_engine = Hashtbl.create 8 in
    List.iter
      (fun (w : Workloads.Wl_common.t) ->
        run_row name per_engine w.wl_name (calibrate w))
      group;
    finish_group name per_engine
  in
  run_group "SPECint-like group" Workloads.Suite.ints;
  run_group "SPECfp-like group" Workloads.Suite.fps;
  (* paging-heavy group: Sv39 address translation on every access
     (vm_kernel) and U<->S syscall round trips (user_mode) -- the
     workloads the host TLB and per-privilege uop caches exist for *)
  Printf.printf "paging group (Sv39 on)\n%s\n" header;
  let per_engine = Hashtbl.create 8 in
  run_row "paging" per_engine "vm_kernel"
    (Workloads.Vm_kernel.program
       ~rounds:(if o.big then 20_000 else 2_000)
       ~scale:16 ());
  run_row "paging" per_engine "user_mode"
    (Workloads.User_mode.program
       ~rounds:(if o.big then 500_000 else 100_000)
       ~scale:8 ());
  finish_group "paging" per_engine

(* ---------------------------------------------------------------- *)
(* §III-D3: checkpoint generation and restore                        *)
(* ---------------------------------------------------------------- *)

let bench_checkpoints o =
  section "§III-D3: RISC-V checkpoint generation with NEMU + SimPoint";
  Printf.printf
    "(paper: checkpoints generated at >300 MIPS; 8 CoreMark-PRO checkpoints \
     generated and restored correctly)\n\n";
  let w = Workloads.Suite.find "coremark_like" in
  let prog = w.program ~scale:(if o.big then 20 else 4) in
  let interval = if o.big then 100_000 else 10_000 in
  let cks, stats = Checkpoint.Sampled.generate ~interval ~max_k:8 prog in
  (* BBV profiling against raw NEMU on one program, long enough
     (1.24M instructions, 3.7M with --big) to amortise compilation;
     each timed call builds its own machine, and the best of three
     alternating runs is kept *)
  let long_prog = w.program ~scale:(if o.big then 300 else 100) in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let n = f () in
    (n, Unix.gettimeofday () -. t0)
  in
  let faster ((_, s) as a) ((_, s') as b) = if s' < s then b else a in
  let prof = ref (0, infinity) and raw = ref (0, infinity) in
  for _ = 1 to 3 do
    prof :=
      faster !prof
        (timed (fun () -> snd (Checkpoint.Sampled.profile ~interval long_prog)));
    raw :=
      faster !raw
        (timed (fun () ->
             fst
               (Nemu.Engine.run_program ~max_insns:200_000_000
                  Nemu.Engine.Nemu long_prog)))
  done;
  let (prof_n, prof_secs), (raw_n, raw_secs) = (!prof, !raw) in
  let prof_mips = Nemu.Engine.mips prof_n prof_secs in
  let raw_mips = Nemu.Engine.mips raw_n raw_secs in
  Printf.printf
    "BBV profiling: %d instructions in %.3fs = %.1f MIPS\n\
     raw NEMU on the same program: %.1f MIPS -> profiling retains %.0f%% \
     of interpreter speed (paper: 320/733 = 44%%)\n\
     intervals: %d, checkpoints selected: %d\n"
    prof_n prof_secs prof_mips raw_mips
    (100. *. prof_mips /. raw_mips)
    stats.gen_intervals stats.gen_selected;
  (* restore each and verify it runs on the cycle-level model
     (parallel across pool workers under --jobs N) *)
  List.iter
    (fun (r : Checkpoint.Sampled.sample_result) ->
      Printf.printf
        "  checkpoint @interval %-4d weight %.2f -> restored, ipc %.3f\n"
        r.sr_index r.sr_weight r.sr_ipc)
    (Checkpoint.Sampled.simulate_all ~warmup:2_000 ~measure:4_000
       ~jobs:(o.rc.jobs) ~retries:o.rc.retries
       Xiangshan.Config.yqh cks)

(* ---------------------------------------------------------------- *)
(* Table II: micro-architecture parameters                           *)
(* ---------------------------------------------------------------- *)

let bench_table2 _ =
  section "Table II: tape-out micro-architecture parameters (YQH vs NH)";
  print_endline (Xiangshan.Config.table2 ())

(* ---------------------------------------------------------------- *)
(* Figure 12: SPEC-like scores across platforms                      *)
(* ---------------------------------------------------------------- *)

let run_score o cfg (w : Workloads.Wl_common.t) =
  let prog = w.program ~scale:(wl_scale o w) in
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  let _ = Xiangshan.Soc.run ~max_cycles:400_000_000 soc in
  Xiangshan.Core.ipc soc.Xiangshan.Soc.cores.(0)

let bench_fig12 o =
  section "Figure 12: SPEC-like scores (score/GHz, proportional to IPC)";
  Printf.printf
    "(paper: YQH ~7/GHz; NH ~10/GHz; 4MB LLC beats 2MB LLC by +8.9%% int / \
     +5.4%% fp)\n\n";
  let configs =
    [
      Xiangshan.Config.yqh;
      Xiangshan.Config.yqh_fpga_90c;
      Xiangshan.Config.nh_single;
      Xiangshan.Config.nh_fpga_250c_4mb;
      Xiangshan.Config.nh_fpga_250c_2mb;
    ]
  in
  let llc_int, llc_fp =
    List.partition
      (fun w -> w.Workloads.Wl_common.group = `Int)
      Workloads.Suite.llc_stress
  in
  let int_suite = Workloads.Suite.ints @ llc_int in
  let fp_suite = Workloads.Suite.fps @ llc_fp in
  let results =
    List.map
      (fun cfg ->
        let int_ipcs = List.map (run_score o cfg) int_suite in
        let fp_ipcs = List.map (run_score o cfg) fp_suite in
        (cfg, geomean int_ipcs, geomean fp_ipcs))
      configs
  in
  (* one calibration constant: chosen so the YQH baseline lands on its
     measured silicon score (7.03/GHz int); every other number uses
     the same constant, so all ratios are model-derived *)
  let yqh_int = match results with (_, i, _) :: _ -> i | [] -> 1.0 in
  let k = 7.03 /. yqh_int in
  Printf.printf "%-28s %14s %14s %12s %12s\n" "configuration" "int score/GHz"
    "fp score/GHz" "int IPC" "fp IPC";
  List.iter
    (fun ((cfg : Xiangshan.Config.t), i, f) ->
      Printf.printf "%-28s %14.2f %14.2f %12.3f %12.3f\n"
        cfg.Xiangshan.Config.cfg_name (k *. i) (k *. f) i f)
    results;
  (* the crossover drivers, individually *)
  Printf.printf "\nLLC-sensitive workloads (IPC):\n";
  List.iter
    (fun (w : Workloads.Wl_common.t) ->
      Printf.printf "  %-10s" w.wl_name;
      List.iter
        (fun cfg -> Printf.printf " %s=%.3f" cfg.Xiangshan.Config.cfg_name (run_score o cfg w))
        [ Xiangshan.Config.yqh; Xiangshan.Config.nh_single;
          Xiangshan.Config.nh_fpga_250c_4mb; Xiangshan.Config.nh_fpga_250c_2mb ];
      print_newline ())
    Workloads.Suite.llc_stress;
  (match results with
  | [ _; _; _; (_, i4, f4); (_, i2, f2) ] ->
      Printf.printf
        "\n\
         NH 4MB vs 2MB LLC: int %+.1f%% (paper +8.9%%), fp %+.1f%% (paper \
         +5.4%%)\n"
        (100. *. ((i4 /. i2) -. 1.))
        (100. *. ((f4 /. f2) -. 1.))
  | _ -> ());
  match (results, List.nth_opt results 2) with
  | (_, yi, _) :: _, Some (_, ni, _) ->
      Printf.printf "NH vs YQH (int): %+.1f%% (paper: ~+43%%, 7.03 -> 10.06)\n"
        (100. *. ((ni /. yi) -. 1.))
  | _ -> ()

(* ---------------------------------------------------------------- *)
(* Figure 14: PUBS IPC difference on sjeng checkpoints               *)
(* ---------------------------------------------------------------- *)

let bench_fig14 o =
  section "Figure 14: IPC difference with PUBS on sjeng checkpoints";
  Printf.printf
    "(paper: no visible deviation on XiangShan, vs +6.5%% reported by the \
     original PUBS paper on SimpleScalar)\n\n";
  let prog =
    (Workloads.Suite.find "sjeng_like").program ~scale:(if o.big then 30 else 8)
  in
  let interval = if o.big then 40_000 else 8_000 in
  let cks, _ = Checkpoint.Sampled.generate ~interval ~max_k:10 prog in
  let age_cfg = Xiangshan.Config.yqh in
  let pubs_cfg =
    {
      Xiangshan.Config.yqh with
      Xiangshan.Config.cfg_name = "YQH+PUBS";
      issue_policy = Xiangshan.Config.Pubs;
    }
  in
  Printf.printf "%-12s %10s %10s %10s\n" "checkpoint" "AGE IPC" "PUBS IPC"
    "delta";
  let deltas =
    List.filter_map
      (fun (sc : Checkpoint.Sampled.sampled_checkpoint) ->
        let warmup = if o.big then 20_000 else 4_000 in
        let measure = if o.big then 20_000 else 8_000 in
        let a =
          Checkpoint.Sampled.simulate_checkpoint ~warmup ~measure age_cfg sc
        in
        let p =
          Checkpoint.Sampled.simulate_checkpoint ~warmup ~measure pubs_cfg sc
        in
        (* a checkpoint too close to program exit measures nothing *)
        if a.sr_instructions < measure / 2 then None
        else begin
          let d = (p.sr_ipc /. max 1e-9 a.sr_ipc) -. 1.0 in
          Printf.printf "%-12d %10.3f %10.3f %+9.2f%%\n" sc.sc_index a.sr_ipc
            p.sr_ipc (100. *. d);
          Some d
        end)
      cks
  in
  let avg =
    List.fold_left ( +. ) 0.0 deltas
    /. float_of_int (max 1 (List.length deltas))
  in
  Printf.printf "average IPC delta: %+.2f%% (paper: no visible deviation)\n"
    (100. *. avg)

(* ---------------------------------------------------------------- *)
(* Figure 15: ready-instruction distribution                         *)
(* ---------------------------------------------------------------- *)

let bench_fig15 o =
  section "Figure 15: fraction of cycles by number of ready instructions";
  Printf.printf
    "(paper, sjeng on XiangShan: >2 ready instructions in ~12.8%% of cycles; \
     ~5.9%% of instructions are high-priority)\n\n";
  let prog =
    (Workloads.Suite.find "sjeng_like").program ~scale:(if o.big then 20 else 4)
  in
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  let _ = Xiangshan.Soc.run ~max_cycles:400_000_000 soc in
  let perf = soc.Xiangshan.Soc.cores.(0).Xiangshan.Core.perf in
  let hist = perf.Xiangshan.Core.ready_hist in
  let total = float_of_int (Array.fold_left ( + ) 0 hist) in
  Array.iteri
    (fun n c ->
      if c > 0 then
        Printf.printf "global.num_ready_frac_%-2s : %6.2f%%\n"
          (if n = 16 then "16+" else string_of_int n)
          (100. *. float_of_int c /. total))
    hist;
  let more_than_2 =
    Array.fold_left ( + ) 0 (Array.sub hist 3 14) |> float_of_int
  in
  Printf.printf "\ncycles with >2 ready instructions: %.1f%% (paper: 12.8%%)\n"
    (100. *. more_than_2 /. total);
  (* high-priority fraction measured under PUBS *)
  let soc' =
    Xiangshan.Soc.create
      {
        Xiangshan.Config.yqh with
        Xiangshan.Config.issue_policy = Xiangshan.Config.Pubs;
      }
  in
  Xiangshan.Soc.load_program soc' prog;
  let _ = Xiangshan.Soc.run ~max_cycles:400_000_000 soc' in
  let p' = soc'.Xiangshan.Soc.cores.(0).Xiangshan.Core.perf in
  Printf.printf "high-priority instructions: %.1f%% (paper: 5.9%%)\n"
    (100.
    *. float_of_int p'.Xiangshan.Core.p_hi_prio
    /. float_of_int (max 1 p'.Xiangshan.Core.p_dispatched))

(* ---------------------------------------------------------------- *)
(* Ablations: the design choices DESIGN.md calls out                 *)
(* ---------------------------------------------------------------- *)

let bench_ablation o =
  section "Ablations: NH feature knobs and verification-relevant parameters";
  let base = Xiangshan.Config.nh_single in
  let score cfg w =
    let prog = (Workloads.Suite.find w).Workloads.Wl_common.program
        ~scale:(wl_scale o (Workloads.Suite.find w)) in
    let soc = Xiangshan.Soc.create cfg in
    Xiangshan.Soc.load_program soc prog;
    let _ = Xiangshan.Soc.run ~max_cycles:400_000_000 soc in
    Xiangshan.Core.ipc soc.Xiangshan.Soc.cores.(0)
  in
  (* 1. macro-op fusion and move elimination (Table II NH features) *)
  Printf.printf "feature ablation (IPC on lbm_like / coremark_like):\n";
  let variants =
    [
      ("NH (fusion+move-elim)", base);
      ( "NH -fusion",
        { base with Xiangshan.Config.cfg_name = "NH-nofuse"; fusion = false } );
      ( "NH -move-elim",
        { base with Xiangshan.Config.cfg_name = "NH-nome"; move_elim = false } );
      ( "NH -both",
        {
          base with
          Xiangshan.Config.cfg_name = "NH-neither";
          fusion = false;
          move_elim = false;
        } );
    ]
  in
  List.iter
    (fun (name, cfg) ->
      Printf.printf "  %-24s lbm %.3f   coremark %.3f\n" name
        (score cfg "lbm_like") (score cfg "coremark_like"))
    variants;
  (* 2. store-buffer drain interval: the Figure 3 non-determinism
     window.  More delay -> more speculative page faults for the
     page-fault diff-rule to reconcile; architectural results remain
     identical (DiffTest-verified). *)
  Printf.printf
    "\nstore-buffer drain interval vs page-fault diff-rule firings \
     (vm_kernel):\n";
  List.iter
    (fun drain ->
      let cfg =
        {
          Xiangshan.Config.yqh with
          Xiangshan.Config.cfg_name = "YQH-drain" ^ string_of_int drain;
          sb_drain_interval = drain;
        }
      in
      let prog = Workloads.Vm_kernel.program ~scale:2 () in
      let soc = Xiangshan.Soc.create cfg in
      Xiangshan.Soc.load_program soc prog;
      let dt = Minjie.Difftest.create ?ref_kind:o.rc.ref_kind ~prog soc in
      match Minjie.Workflow.drive ~max_cycles:50_000_000 dt with
      | Minjie.Difftest.Finished code ->
          let fires =
            List.assoc "page-fault-forcing" (Minjie.Difftest.rule_fire_counts dt)
          in
          Printf.printf
            "  drain every %-3d cycles: %3d forced page faults, exit %d \
             (verified)\n"
            drain fires code
      | Minjie.Difftest.Failed f ->
          Printf.printf "  drain every %d cycles: FAILED %s\n" drain
            f.Minjie.Rule.f_msg
      | Minjie.Difftest.Running ->
          Printf.printf "  drain every %d cycles: timeout\n" drain)
    [ 1; 4; 16; 64 ];
  (* 3. branch predictor sizing on the branchy workload *)
  Printf.printf "\nBPU sizing (sjeng_like IPC / MPKI):\n";
  List.iter
    (fun (name, tage) ->
      let cfg =
        {
          Xiangshan.Config.yqh with
          Xiangshan.Config.cfg_name = name;
          tage_entries = tage;
        }
      in
      let prog =
        (Workloads.Suite.find "sjeng_like").Workloads.Wl_common.program
          ~scale:(if o.big then 20 else 4)
      in
      let soc = Xiangshan.Soc.create cfg in
      Xiangshan.Soc.load_program soc prog;
      let _ = Xiangshan.Soc.run ~max_cycles:400_000_000 soc in
      let core = soc.Xiangshan.Soc.cores.(0) in
      Printf.printf "  TAGE 4x%-5d : IPC %.3f  MPKI %.1f\n" tage
        (Xiangshan.Core.ipc core)
        (Xiangshan.Bpu.mpki core.Xiangshan.Core.bpu
           ~instructions:core.Xiangshan.Core.perf.Xiangshan.Core.p_instrs))
    [ ("tiny", 256); ("small", 1024); ("table-ii", 4096) ]

(* ---------------------------------------------------------------- *)
(* Fault-injection campaign: every registry fault on its designated  *)
(* workload, detection + replay asserted per cell                    *)
(* ---------------------------------------------------------------- *)

(* --journal without a path of its own still needs a stable one *)
let journal_at o default = Minjie.Run_config.journal o.rc ~default o.journal

let bench_campaign o =
  section "Fault-injection campaign: prove DRAV catches what we break";
  let faults, seeds = Minjie.Campaign.grid_spec ~smoke:o.smoke ~seed:o.seed in
  Printf.printf
    "grid: %d faults x %d seed(s), base seed %d; every cell must be \
     detected by an expected diff-rule and reproduce in the LightSSS \
     replay\n\n"
    (match faults with
    | Some names -> List.length names
    | None -> List.length Minjie.Fault.all)
    (List.length seeds) o.seed;
  (* MINJIE_CHAOS arms a host-chaos plan here exactly as it does for
     `minjie campaign` *)
  Minjie.Run_config.arm_chaos o.rc;
  let s =
    Minjie.Campaign.run ?faults ~seeds ?ref_kind:o.rc.ref_kind
      ~phase_order:o.rc.phase_order ~perf:o.perf ~jobs:o.rc.jobs
      ?journal:(journal_at o "minjie-campaign.journal")
      ~resume:o.rc.resume ~retries:o.rc.retries
      ~progress:(fun c ->
        Printf.printf "  %s\n%!" (Minjie.Campaign.string_of_cell c))
      ()
  in
  Minjie.Host_chaos.disarm ();
  (* stdout only: the JSON must stay byte-identical between a clean
     run and an interrupted-then-resumed one *)
  if s.Minjie.Campaign.resumed > 0 || s.Minjie.Campaign.retried > 0 then
    Printf.printf
      "\n(journal: %d cell(s) resumed, %d supervised re-run(s), %d \
       recovered)\n"
      s.Minjie.Campaign.resumed s.Minjie.Campaign.retried
      s.Minjie.Campaign.recovered;
  List.iter
    (fun (c : Minjie.Campaign.cell) ->
      record
        [
          ("experiment", Json.Str "campaign");
          ("group", Json.Str "cell");
          ("fault", Json.Str c.Minjie.Campaign.c_fault);
          ("layer", Json.Str c.Minjie.Campaign.c_layer);
          ("workload", Json.Str c.Minjie.Campaign.c_workload);
          ("config", Json.Str c.Minjie.Campaign.c_config);
          ("seed", Json.Int c.Minjie.Campaign.c_seed);
          ("trigger_cycle", Json.Int c.Minjie.Campaign.c_trigger);
          ("detected", Json.Bool c.Minjie.Campaign.c_detected);
          ("rule", Json.Str c.Minjie.Campaign.c_rule);
          ("rule_expected", Json.Bool c.Minjie.Campaign.c_rule_expected);
          ("failure_cycle", Json.Int c.Minjie.Campaign.c_failure_cycle);
          ("latency_cycles", Json.Int c.Minjie.Campaign.c_latency_cycles);
          ("commits_checked", Json.Int c.Minjie.Campaign.c_commits);
          ("replayed", Json.Bool c.Minjie.Campaign.c_replayed);
          ("replay_rule", Json.Str c.Minjie.Campaign.c_replay_rule);
          ("replay_window", Json.Int c.Minjie.Campaign.c_replay_window);
          ("replay_within", Json.Bool c.Minjie.Campaign.c_replay_within);
          ("ok", Json.Bool c.Minjie.Campaign.c_ok);
        ])
    s.Minjie.Campaign.cells;
  record
    [
      ("experiment", Json.Str "campaign");
      ("group", Json.Str "summary");
      ("total_cells", Json.Int s.Minjie.Campaign.total);
      ("detected", Json.Int s.Minjie.Campaign.detected);
      ("escapes", Json.Int s.Minjie.Campaign.escapes);
      ("rule_mismatches", Json.Int s.Minjie.Campaign.rule_mismatches);
      ("replay_misses", Json.Int s.Minjie.Campaign.replay_misses);
      ("snapshot_interval", Json.Int s.Minjie.Campaign.snapshot_interval);
    ];
  Printf.printf
    "\n\
     campaign summary: %d cells, %d detected, %d escapes, %d rule \
     mismatches, %d replay misses\n"
    s.Minjie.Campaign.total s.Minjie.Campaign.detected
    s.Minjie.Campaign.escapes s.Minjie.Campaign.rule_mismatches
    s.Minjie.Campaign.replay_misses;
  if Minjie.Campaign.failed s then begin
    failed := true;
    Printf.printf "CAMPAIGN FAILED: the verification stack missed a fault\n"
  end
  else Printf.printf "zero escapes: every injected fault was caught\n"

(* ---------------------------------------------------------------- *)
(* Coverage-guided fuzz campaign: mutate testgen programs, run them  *)
(* under DiffTest on a (config x REF) grid, keep what reaches new    *)
(* microarchitectural coverage                                       *)
(* ---------------------------------------------------------------- *)

let bench_fuzz o =
  section "Coverage-guided fuzz campaign: chase new microarchitectural states";
  let p =
    let base = if o.smoke then Fuzz.smoke else Fuzz.default in
    let base = { base with Fuzz.fz_seed = o.seed } in
    match o.rc.ref_kind with
    | Some k -> { base with Fuzz.fz_refs = [ k ] }
    | None -> base
  in
  Printf.printf
    "grid: %d round(s) x %d candidate(s) over %s, REF %s, base seed %d\n\n"
    p.Fuzz.fz_rounds p.Fuzz.fz_cands
    (String.concat "/" p.Fuzz.fz_configs)
    (String.concat "+" (List.map Minjie.Ref_model.kind_name p.Fuzz.fz_refs))
    p.Fuzz.fz_seed;
  let s =
    Fuzz.run ~p ~jobs:o.rc.jobs
      ?journal:(journal_at o "minjie-fuzz.journal")
      ~resume:o.rc.resume ~retries:o.rc.retries
      ~progress:(fun e -> Printf.printf "  %s\n%!" (Fuzz.string_of_exec e))
      ()
  in
  (* stdout only: the JSON must stay byte-identical between a clean
     run and an interrupted-then-resumed one *)
  if s.Fuzz.fz_resumed > 0 || s.Fuzz.fz_retried > 0 then
    Printf.printf
      "\n(journal: %d exec(s) resumed, %d supervised re-run(s), %d recovered)\n"
      s.Fuzz.fz_resumed s.Fuzz.fz_retried s.Fuzz.fz_recovered;
  print_newline ();
  List.iter
    (fun (r : Fuzz.round_stat) ->
      Printf.printf "  %s\n" (Fuzz.string_of_round r);
      record
        [
          ("experiment", Json.Str "fuzz");
          ("group", Json.Str "round");
          ("round", Json.Int r.Fuzz.rs_round);
          ("execs", Json.Int r.Fuzz.rs_execs);
          ("new_points", Json.Int r.Fuzz.rs_new_points);
          ("points", Json.Int r.Fuzz.rs_points);
          ("cells", Json.Int r.Fuzz.rs_cells);
          ("corpus", Json.Int r.Fuzz.rs_corpus);
          ("mismatches", Json.Int r.Fuzz.rs_mismatches);
        ])
    s.Fuzz.fz_round_stats;
  (* every rule-fire find gets its own record: seed + mutation history
     is the reproducer *)
  List.iter
    (fun (e : Fuzz.exec) ->
      if Fuzz.is_mismatch e then
        record
          [
            ("experiment", Json.Str "fuzz");
            ("group", Json.Str "find");
            ("round", Json.Int e.Fuzz.x_round);
            ("cand", Json.Int e.Fuzz.x_cand);
            ("seed", Json.Int e.Fuzz.x_seed);
            ("ops", Json.Str e.Fuzz.x_ops);
            ("config", Json.Str e.Fuzz.x_cfg);
            ("ref", Json.Str e.Fuzz.x_ref);
            ("rule", Json.Str e.Fuzz.x_rule);
            ("replayed", Json.Bool e.Fuzz.x_replayed);
            ("replay_rule", Json.Str e.Fuzz.x_replay_rule);
          ])
    s.Fuzz.fz_execs;
  record
    [
      ("experiment", Json.Str "fuzz");
      ("group", Json.Str "summary");
      ("seed", Json.Int p.Fuzz.fz_seed);
      ("rounds", Json.Int (List.length s.Fuzz.fz_round_stats));
      ("execs", Json.Int (List.length s.Fuzz.fz_execs));
      ("points", Json.Int s.Fuzz.fz_points);
      ("cells", Json.Int s.Fuzz.fz_cells);
      ("corpus", Json.Int s.Fuzz.fz_corpus);
      ("mismatches", Json.Int s.Fuzz.fz_mismatches);
    ];
  Printf.printf
    "\n\
     fuzz summary: %d exec(s), %d coverage point(s) over %d cell(s), \
     corpus %d, %d mismatch(es)\n"
    (List.length s.Fuzz.fz_execs)
    s.Fuzz.fz_points s.Fuzz.fz_cells s.Fuzz.fz_corpus s.Fuzz.fz_mismatches;
  if Fuzz.failed s then begin
    failed := true;
    Printf.printf
      "FUZZ FAILED: a pool failure or a mismatch that did not reproduce in \
       replay\n"
  end

(* ---------------------------------------------------------------- *)
(* Host-chaos suite: inject harness-level host faults (worker kills, *)
(* EINTR storms, short writes, stalls, journal ENOSPC) and assert    *)
(* the campaign verdict is byte-identical to the clean run's under   *)
(* every schedule                                                    *)
(* ---------------------------------------------------------------- *)

let bench_chaos o =
  section "Host-chaos suite: the harness survives the host";
  let faults, seeds = Minjie.Campaign.grid_spec ~smoke:o.smoke ~seed:o.seed in
  let jobs = max 2 o.rc.jobs in
  let chaos_seed = o.seed in
  Printf.printf
    "(every schedule below is a deterministic function of seed %d; the \
     campaign runs at\n\
    \ jobs=%d with a retry budget of 2, and its verdict must be \
     byte-identical to the\n\
    \ clean run's under every schedule)\n\n"
    chaos_seed jobs;
  (* cell labels exactly as Campaign.run builds them, for the
     planned-injection counts *)
  let fault_names =
    match faults with
    | Some names -> names
    | None -> List.map (fun f -> f.Minjie.Fault.f_name) Minjie.Fault.all
  in
  let labels =
    List.concat_map
      (fun f -> List.map (fun s -> Printf.sprintf "%s#%d" f s) seeds)
      fault_names
  in
  (* clean baseline: no chaos, sequential *)
  let clean, clean_secs =
    time (fun () ->
        Minjie.Campaign.run ?faults ~seeds ?ref_kind:o.rc.ref_kind ~jobs:1 ())
  in
  Printf.printf "clean baseline: %d cells, %d escapes, %.2f s\n\n"
    clean.Minjie.Campaign.total clean.Minjie.Campaign.escapes clean_secs;
  let all_identical = ref true in
  List.iter
    (fun cls ->
      let name = Minjie.Host_chaos.class_name cls in
      (* stalled workers must overrun the deadline, and real cells must
         never get near it *)
      let timeout =
        match cls with Minjie.Host_chaos.Slow_worker -> Some 3.0 | _ -> None
      in
      let journal =
        match cls with
        | Minjie.Host_chaos.Journal_enospc ->
            Some (Filename.temp_file "minjie-chaos" ".journal")
        | _ -> None
      in
      Minjie.Host_chaos.arm ~slow_delay:8.0 ~seed:chaos_seed [ cls ];
      let injected =
        match List.assoc_opt name (Minjie.Host_chaos.planned ~labels) with
        | Some n -> n
        | None -> 0
      in
      let s, secs =
        time (fun () ->
            Minjie.Campaign.run ?faults ~seeds ?ref_kind:o.rc.ref_kind ~jobs
              ~retries:2 ?timeout ?journal ())
      in
      let parent_fired =
        List.fold_left (fun a (_, n) -> a + n) 0 (Minjie.Host_chaos.fired ())
      in
      Minjie.Host_chaos.disarm ();
      (match journal with
      | Some p -> ( try Sys.remove p with Sys_error _ -> ())
      | None -> ());
      let identical = s.Minjie.Campaign.cells = clean.Minjie.Campaign.cells in
      if not identical then all_identical := false;
      Printf.printf
        "%-15s: %3d planned injection(s), %2d re-run(s), %2d recovered; \
         %d/%d detected, %d escapes, verdict %s  (%.2f s)\n\
         %!"
        name injected s.Minjie.Campaign.retried s.Minjie.Campaign.recovered
        s.Minjie.Campaign.detected s.Minjie.Campaign.total
        s.Minjie.Campaign.escapes
        (if identical then "== clean" else "DIVERGED")
        secs;
      record
        [
          ("experiment", Json.Str "chaos");
          ("group", Json.Str "schedule");
          ("class", Json.Str name);
          ("chaos_seed", Json.Int chaos_seed);
          ("workers", Json.Int jobs);
          ("planned_injections", Json.Int injected);
          ("parent_fired", Json.Int parent_fired);
          ("retried", Json.Int s.Minjie.Campaign.retried);
          ("recovered", Json.Int s.Minjie.Campaign.recovered);
          ("cells", Json.Int s.Minjie.Campaign.total);
          ("detected", Json.Int s.Minjie.Campaign.detected);
          ("escapes", Json.Int s.Minjie.Campaign.escapes);
          ("seconds", Json.Num secs);
          ("verdict_identical", Json.Bool identical);
        ];
      if not identical then begin
        failed := true;
        Printf.printf "CHAOS FAILED: %s diverged from the clean verdict\n" name
      end)
    Minjie.Host_chaos.all_classes;
  (* resume overhead: journal the grid once, then resume from the
     complete journal -- the replay must recompute nothing *)
  let jpath = Filename.temp_file "minjie-resume" ".journal" in
  let _first, first_secs =
    time (fun () ->
        Minjie.Campaign.run ?faults ~seeds ?ref_kind:o.rc.ref_kind ~jobs:1
          ~journal:jpath ())
  in
  let resumed, resumed_secs =
    time (fun () ->
        Minjie.Campaign.run ?faults ~seeds ?ref_kind:o.rc.ref_kind ~jobs:1
          ~journal:jpath ~resume:true ())
  in
  (try Sys.remove jpath with Sys_error _ -> ());
  let resume_identical =
    resumed.Minjie.Campaign.cells = clean.Minjie.Campaign.cells
  in
  Printf.printf
    "\n\
     resume overhead: journaled run %.2f s, full-journal resume %.2f s \
     (%d/%d cells replayed, verdict %s)\n"
    first_secs resumed_secs resumed.Minjie.Campaign.resumed
    resumed.Minjie.Campaign.total
    (if resume_identical then "== clean" else "DIVERGED");
  record
    [
      ("experiment", Json.Str "chaos");
      ("group", Json.Str "resume");
      ("journaled_seconds", Json.Num first_secs);
      ("resume_seconds", Json.Num resumed_secs);
      ("cells_resumed", Json.Int resumed.Minjie.Campaign.resumed);
      ("cells", Json.Int resumed.Minjie.Campaign.total);
      ("verdict_identical", Json.Bool resume_identical);
    ];
  if not resume_identical then begin
    failed := true;
    Printf.printf "CHAOS FAILED: full-journal resume diverged\n"
  end;
  record
    [
      ("experiment", Json.Str "chaos");
      ("group", Json.Str "summary");
      ("host", Json.Obj (host_fields ()));
      ("classes", Json.Int (List.length Minjie.Host_chaos.all_classes));
      ("all_verdicts_identical", Json.Bool !all_identical);
    ];
  if !all_identical && resume_identical then
    Printf.printf
      "\n\
       all %d chaos schedules recovered to the clean verdict, cell for cell\n"
      (List.length Minjie.Host_chaos.all_classes)

(* ---------------------------------------------------------------- *)
(* Co-simulation throughput: the pluggable REF interface lets the    *)
(* same DiffTest run against the ISS or the NEMU block-compiled REF; *)
(* this bench measures both, end-to-end and REF-side only            *)
(* ---------------------------------------------------------------- *)

let cosim_workloads = [ "coremark_like"; "mcf_like"; "vm_kernel" ]

(* Retire instructions on a standalone non-autonomous REF until the
   program exits (or the cap): the REF-side cost of co-simulation,
   with the DUT out of the picture.  One warm-up run, then repeated
   runs until the sample is big enough for a stable rate (small-scale
   programs finish in a millisecond or two). *)
let cosim_ref_only o kind prog =
  let cap = if o.big then 200_000_000 else 50_000_000 in
  let run_once () =
    let r = Minjie.Ref_model.create ~kind ~hartid:0 ~prog () in
    let n = ref 0 in
    let continue = ref true in
    while !continue do
      match r.Minjie.Ref_model.step () with
      | Minjie.Ref_model.Committed _ ->
          incr n;
          if !n >= cap then continue := false
      | Minjie.Ref_model.Exited -> continue := false
    done;
    !n
  in
  ignore (run_once ());
  let total = ref 0 and reps = ref 0 in
  let (), secs =
    time (fun () ->
        while !total < 2_000_000 && !reps < 200 do
          total := !total + run_once ();
          incr reps
        done)
  in
  (!total, secs)

let cosim_e2e kind prog =
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  let dt = Minjie.Difftest.create ~ref_kind:kind ~prog soc in
  let status, secs =
    time (fun () -> Minjie.Workflow.drive ~max_cycles:50_000_000 dt)
  in
  (match status with
  | Minjie.Difftest.Failed f ->
      Printf.printf "  !! difftest FAILED under %s REF: %s\n"
        (Minjie.Ref_model.kind_name kind)
        (Minjie.Rule.string_of_failure f)
  | Minjie.Difftest.Running | Minjie.Difftest.Finished _ -> ());
  ( (Minjie.Difftest.soc dt).Xiangshan.Soc.now,
    Minjie.Difftest.commits_checked dt,
    secs )

let bench_cosim o =
  section "Co-simulation throughput: ISS REF vs NEMU REF";
  Printf.printf
    "(the REF is pluggable behind Ref_model; NEMU's block-compiled \
     non-autonomous mode\n\
    \ is the paper's fast REF -- both are measured end-to-end under \
     DiffTest and\n\
    \ REF-side only, stepping the same program standalone)\n\n";
  let speedups_e2e = ref [] and speedups_ref = ref [] in
  List.iter
    (fun wname ->
      let w = Minjie.Campaign.find_workload wname in
      let prog = w.Workloads.Wl_common.program ~scale:(wl_scale o w) in
      Printf.printf "%s:\n" wname;
      let results =
        List.map
          (fun kind ->
            let cycles, commits, e2e_secs = cosim_e2e kind prog in
            let ref_insns, ref_secs = cosim_ref_only o kind prog in
            let kcps = float_of_int cycles /. max 1e-9 e2e_secs /. 1e3 in
            let cps = float_of_int commits /. max 1e-9 e2e_secs in
            let rps = float_of_int ref_insns /. max 1e-9 ref_secs in
            Printf.printf
              "  %-5s e2e: %8.1f kcycles/s %10.0f commits/s   REF-only: \
               %10.0f insns/s\n"
              (Minjie.Ref_model.kind_name kind)
              kcps cps rps;
            record
              [
                ("experiment", Json.Str "cosim");
                ("group", Json.Str "run");
                ("workload", Json.Str wname);
                ("ref", Json.Str (Minjie.Ref_model.kind_name kind));
                ("e2e_cycles", Json.Int cycles);
                ("e2e_seconds", Json.Num e2e_secs);
                ("e2e_kcycles_per_s", Json.Num kcps);
                ("e2e_commits", Json.Int commits);
                ("e2e_commits_per_s", Json.Num cps);
                ("ref_insns", Json.Int ref_insns);
                ("ref_seconds", Json.Num ref_secs);
                ("ref_insns_per_s", Json.Num rps);
              ];
            (kind, cps, rps))
          [ Minjie.Ref_model.Iss; Minjie.Ref_model.Nemu ]
      in
      match results with
      | [ (_, iss_cps, iss_rps); (_, nemu_cps, nemu_rps) ] ->
          let e2e_speedup = nemu_cps /. max 1e-9 iss_cps in
          let ref_speedup = nemu_rps /. max 1e-9 iss_rps in
          speedups_e2e := e2e_speedup :: !speedups_e2e;
          speedups_ref := ref_speedup :: !speedups_ref;
          Printf.printf
            "  nemu/iss speedup: %.2fx end-to-end, %.2fx REF-side\n" e2e_speedup
            ref_speedup;
          record
            [
              ("experiment", Json.Str "cosim");
              ("group", Json.Str "speedup");
              ("workload", Json.Str wname);
              ("e2e_speedup", Json.Num e2e_speedup);
              ("ref_step_speedup", Json.Num ref_speedup);
            ]
      | _ -> ())
    cosim_workloads;
  let ge = geomean !speedups_e2e and gr = geomean !speedups_ref in
  record
    [
      ("experiment", Json.Str "cosim");
      ("group", Json.Str "summary");
      ("workloads", Json.Int (List.length cosim_workloads));
      ("geomean_e2e_speedup", Json.Num ge);
      ("geomean_ref_step_speedup", Json.Num gr);
    ];
  Printf.printf
    "\ngeomean nemu/iss speedup: %.2fx end-to-end, %.2fx REF-side\n" ge gr

(* ---------------------------------------------------------------- *)
(* Top-down CPI stacks: every workload's cycles folded into the      *)
(* L1/L2 cycle-accounting stack, with the invariant (buckets sum     *)
(* exactly to measured cycles) asserted on every run                 *)
(* ---------------------------------------------------------------- *)

(* three bottleneck archetypes are enough for CI: compute-bound,
   mispredict-bound and memory-bound *)
let topdown_smoke_workloads = [ "coremark_like"; "sjeng_like"; "mcf_like" ]

let bench_topdown o =
  section "Top-down CPI stacks: where every cycle went";
  Printf.printf
    "(each cycle of each run lands in exactly one of 9 leaf buckets; \
     the stack is\n\
    \ rejected outright if the buckets do not sum to the measured \
     cycle count)\n\n";
  let workloads =
    if o.smoke then
      List.map Minjie.Campaign.find_workload topdown_smoke_workloads
    else Workloads.Suite.all
  in
  (* one pool job per workload: a full run to completion, returning
     the (marshal-safe) counter snapshot of hart 0 *)
  let pool_jobs =
    List.map
      (fun (w : Workloads.Wl_common.t) ->
        {
          Minjie.Pool.j_label = w.Workloads.Wl_common.wl_name;
          j_cost = float_of_int (wl_scale o w);
          j_run =
            (fun () ->
              let prog = w.Workloads.Wl_common.program ~scale:(wl_scale o w) in
              let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
              Xiangshan.Soc.load_program soc prog;
              let _ = Xiangshan.Soc.run ~max_cycles:400_000_000 soc in
              Xiangshan.Soc.counter_snapshot soc ~hartid:0);
        })
      workloads
  in
  let results, _ = Minjie.Pool.map ~jobs:(o.rc.jobs) pool_jobs in
  let stacks =
    List.filter_map
      (fun (r : (string * int) list Minjie.Pool.result) ->
        match r.Minjie.Pool.r_outcome with
        | Minjie.Pool.Done counters ->
            Some (r.Minjie.Pool.r_label, counters)
        | Minjie.Pool.Job_error msg | Minjie.Pool.Crashed msg ->
            failed := true;
            Printf.printf "TOPDOWN FAILED: %s: %s\n" r.Minjie.Pool.r_label msg;
            None
        | Minjie.Pool.Timed_out secs ->
            failed := true;
            Printf.printf "TOPDOWN FAILED: %s timed out after %.1fs\n"
              r.Minjie.Pool.r_label secs;
            None)
      results
  in
  let ok = ref 0 in
  List.iter
    (fun (wname, counters) ->
      match Perf.Topdown.of_counters counters with
      | Error msg ->
          failed := true;
          Printf.printf "TOPDOWN FAILED: %s: %s\n" wname msg
      | Ok stack -> (
          match Perf.Topdown.check stack with
          | Error msg ->
              failed := true;
              Printf.printf "TOPDOWN INVARIANT VIOLATED: %s: %s\n" wname msg
          | Ok () ->
              incr ok;
              print_string (Perf.Topdown.render ~label:wname stack);
              print_newline ();
              record
                (( "experiment", Json.Str "topdown" )
                 :: ("group", Json.Str "stack")
                 :: ("workload", Json.Str wname)
                 :: ("cycles", Json.Int stack.Perf.Topdown.ts_cycles)
                 :: ("instrs", Json.Int stack.Perf.Topdown.ts_instrs)
                 :: ("ipc", Json.Num (Perf.Topdown.ipc stack))
                 :: ("cpi", Json.Num (Perf.Topdown.cpi stack))
                 :: ("sum_matches_cycles", Json.Bool true)
                 :: (List.map
                       (fun b ->
                         ( Perf.Topdown.counter_name b,
                           Json.Int (Perf.Topdown.cycles_of stack b) ))
                       Perf.Topdown.all
                    @ List.map
                        (fun l1 ->
                          ( "frac_" ^ Perf.Topdown.level1_name l1,
                            Json.Num (Perf.Topdown.level1_frac stack l1) ))
                        Perf.Topdown.level1_all))))
    stacks;
  record
    [
      ("experiment", Json.Str "topdown");
      ("group", Json.Str "summary");
      ("workloads", Json.Int (List.length workloads));
      ("stacks_ok", Json.Int !ok);
      ("invariant_holds", Json.Bool (!ok = List.length workloads));
    ];
  if !ok = List.length workloads then
    Printf.printf
      "all %d stacks sum to their measured cycle counts, bucket for bucket\n"
      !ok

(* ---------------------------------------------------------------- *)
(* Serve: the persistent warm-state service.  Cold-vs-warm latency   *)
(* per job class -- with every served reply asserted byte-identical  *)
(* to the cold-start execution path -- and sustained jobs/sec under  *)
(* a two-client mixed load.                                          *)
(* ---------------------------------------------------------------- *)

let bench_serve o =
  section "Serve: warm-state service latency and throughput";
  let sock =
    Printf.sprintf "%s/minjie_bench_serve_%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ())
  in
  (try Sys.remove sock with Sys_error _ -> ());
  (* the server and its pool workers inherit this buffer on fork;
     flush so nothing in it can be re-emitted by a child's exit *)
  flush stdout;
  let pid = Unix.fork () in
  if pid = 0 then begin
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 null Unix.stderr;
    let cfg =
      {
        (Serve.Server.default_config ~socket_path:sock) with
        jobs = o.rc.jobs;
        queue_depth = 512;
        batch_max = 8;
        quiet = true;
      }
    in
    Unix._exit (try Serve.Server.serve cfg with _ -> 10)
  end;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Sys.remove sock with Sys_error _ -> ())
  @@ fun () ->
  if not (Serve.Client.wait_ready ~timeout:30.0 sock) then begin
    failed := true;
    Printf.printf "SERVE FAILED: server never answered a ping\n"
  end
  else begin
    (* one spec per job class; distinct workloads so each class's
       first submit is genuinely cold at the server (run and topdown
       share a warm key ("prog:<wl>") when given the same workload) *)
    let blocks = if o.big then 120_000 else 30_000 in
    let classes =
      [
        ( "engine",
          Serve.Proto.Engine
            {
              en_workload = Printf.sprintf "testgen:5:%d:16" blocks;
              en_max_insns = 100_000_000;
            },
          true );
        ( "checkpoint",
          Serve.Proto.Checkpoint
            {
              ck_workload = Printf.sprintf "testgen:3:%d:16" blocks;
              ck_config = "YQH";
              ck_interval = 100_000;
              ck_max_k = 3;
              ck_warmup = 200;
              ck_measure = 600;
            },
          true );
        ( "run",
          Serve.Proto.Run
            {
              rn_workload = "coremark_like";
              rn_config = "YQH";
              rn_max_cycles = 200_000;
              rn_ref = "iss";
            },
          false );
        ( "topdown",
          Serve.Proto.Topdown
            {
              td_workload = "sjeng_like";
              td_config = "YQH";
              td_max_cycles = 200_000;
            },
          false );
      ]
    in
    let result_of = function
      | Serve.Proto.Result r -> Some (r.r_warm, r.r_result)
      | _ -> None
    in
    let c = Serve.Client.connect sock in
    Printf.printf "%-12s %9s %9s %9s  %-5s %s\n" "class" "cold(s)" "warm(s)"
      "speedup" "warm?" "bytes-vs-cold";
    List.iter
      (fun (name, spec, must_2x) ->
        (* the reference: the same spec through the cold-start path,
           in this process, against a throwaway cache *)
        let cold_ref = Marshal.to_string (Serve.Server.exec_cold spec) [] in
        let reply0, t_cold = time (fun () -> Serve.Client.submit c spec) in
        let warm3 =
          List.init 3 (fun _ -> time (fun () -> Serve.Client.submit c spec))
        in
        let t_warm =
          match List.sort compare (List.map snd warm3) with
          | [ _; m; _ ] -> m
          | _ -> assert false
        in
        let replies = reply0 :: List.map fst warm3 in
        let results = List.filter_map result_of replies in
        let ok_count = List.length results = 4 in
        let identical =
          ok_count
          && List.for_all
               (fun (_, r) -> Marshal.to_string r [] = cold_ref)
               results
        in
        let warm_flag =
          match List.rev results with (w, _) :: _ -> w | [] -> false
        in
        let speedup = t_cold /. max 1e-9 t_warm in
        Printf.printf "%-12s %9.3f %9.3f %8.1fx  %-5b %s\n%!" name t_cold
          t_warm speedup warm_flag
          (if identical then "identical" else "DIVERGED");
        record
          [
            ("experiment", Json.Str "serve");
            ("group", Json.Str "latency");
            ("class", Json.Str name);
            ("cold_seconds", Json.Num t_cold);
            ("warm_seconds_median3", Json.Num t_warm);
            ("warm_speedup", Json.Num speedup);
            ("warm_flag", Json.Bool warm_flag);
            ("byte_identical_to_cold", Json.Bool identical);
            ("warm_2x_required", Json.Bool must_2x);
          ];
        if not identical then begin
          failed := true;
          Printf.printf "SERVE FAILED: %s served result diverged from cold\n"
            name
        end;
        if must_2x && speedup < 2.0 then begin
          failed := true;
          Printf.printf
            "SERVE FAILED: %s warm speedup %.2fx below the 2x floor\n" name
            speedup
        end)
      classes;
    (* sustained throughput: two clients flood a mixed engine+run
       load without waiting, then drain all replies *)
    let per_client = if o.smoke then 4 else 10 in
    let tiny_engine =
      Serve.Proto.Engine
        { en_workload = "testgen:7:400:12"; en_max_insns = 1_000_000 }
    in
    let tiny_run =
      Serve.Proto.Run
        {
          rn_workload = "coremark_like";
          rn_config = "YQH";
          rn_max_cycles = 20_000;
          rn_ref = "iss";
        }
    in
    let a = Serve.Client.connect sock in
    let b = Serve.Client.connect sock in
    let (), wall =
      time (fun () ->
          for i = 1 to per_client do
            Serve.Client.submit_nowait a
              (if i mod 2 = 0 then tiny_engine else tiny_run);
            Serve.Client.submit_nowait b
              (if i mod 2 = 0 then tiny_run else tiny_engine)
          done;
          for _ = 1 to per_client do
            ignore (Serve.Client.read_reply a);
            ignore (Serve.Client.read_reply b)
          done)
    in
    let total = 2 * per_client in
    let jps = float_of_int total /. max 1e-9 wall in
    Printf.printf
      "\nsustained: %d mixed jobs from 2 clients in %.2f s = %.1f jobs/s\n"
      total wall jps;
    record
      [
        ("experiment", Json.Str "serve");
        ("group", Json.Str "throughput");
        ("clients", Json.Int 2);
        ("jobs", Json.Int total);
        ("seconds", Json.Num wall);
        ("jobs_per_sec", Json.Num jps);
      ];
    Serve.Client.close a;
    Serve.Client.close b;
    (match Serve.Client.request c Serve.Proto.Shutdown with
    | Serve.Proto.Shutting_down -> ()
    | _ ->
        failed := true;
        Printf.printf "SERVE FAILED: shutdown not acknowledged\n");
    Serve.Client.close c
  end

(* ---------------------------------------------------------------- *)

let all_benches =
  [
    ("table1", bench_table1, "snapshot schemes and their costs (Table I)");
    ("fig6", bench_fig6, "simulation time vs LightSSS snapshot interval");
    ("fig8", bench_fig8, "interpreter performance in MIPS, best of N reps");
    ( "checkpoints",
      bench_checkpoints,
      "NEMU+SimPoint checkpoint generation and restore (§III-D3)" );
    ("table2", bench_table2, "tape-out micro-architecture parameters");
    ("fig12", bench_fig12, "SPEC-like scores across platforms");
    ("fig14", bench_fig14, "PUBS IPC difference on sjeng checkpoints");
    ("fig15", bench_fig15, "ready-instruction distribution");
    ("ablation", bench_ablation, "NH feature knobs and drain/BPU sweeps");
    ( "campaign",
      bench_campaign,
      "fault-injection campaign (honours --smoke/--seed/--ref/--jobs)" );
    ( "fuzz",
      bench_fuzz,
      "coverage-guided fuzz campaign (honours \
       --smoke/--seed/--ref/--jobs/--journal/--resume)" );
    ( "chaos",
      bench_chaos,
      "host-chaos suite: campaign verdict identity under injected host \
       faults" );
    ("cosim", bench_cosim, "co-simulation throughput, ISS REF vs NEMU REF");
    ( "serve",
      bench_serve,
      "warm-state service: cold-vs-warm latency per job class, jobs/sec" );
    ( "topdown",
      bench_topdown,
      "top-down CPI stacks per workload (honours --smoke/--jobs)" );
  ]

(* --json FILE: refused at parse time unless FILE's directory exists
   and is writable, so a bad path cannot waste a whole run *)
let json_arg =
  let parse path =
    let dir = Filename.dirname path in
    match Unix.access dir [ Unix.W_OK; Unix.X_OK ] with
    | () when Sys.is_directory dir -> Ok path
    | () | (exception Unix.Unix_error _) ->
        Error (`Msg (Printf.sprintf "%s: %s is not a writable directory" path dir))
  in
  Cmdliner.Arg.(
    value
    & opt (some (conv (parse, Format.pp_print_string))) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write one machine-readable record per measurement to $(docv) (atomic).")

let () =
  let open Cmdliner in
  let experiments =
    let one = List.map (fun (n, f, _) -> (n, [ f ])) all_benches in
    let all = ("all", List.map (fun (_, f, _) -> f) all_benches) in
    Arg.(value & pos_all (enum (one @ [ all ])) [] & info [] ~docv:"EXPERIMENT")
  in
  let switch names doc = Arg.(value & flag & info names ~doc) in
  let run experiments big json seed smoke perf (rc, journal) =
    match List.concat experiments with
    (* no experiment named: print the listing rather than silently
       running for hours *)
    | [] -> `Help (`Pager, None)
    | selected ->
        let o = { big; smoke; seed; perf; rc; journal; json } in
        List.iter (fun f -> f o) selected;
        write_json o;
        if !failed then exit 1;
        `Ok ()
  in
  let man =
    `S "EXPERIMENTS"
    :: List.map (fun (n, _, descr) -> `I (n, descr)) all_benches
    @ [ `I ("all", "every experiment above, in order") ]
  in
  Cli.main
    (Cmd.v
       (Cmd.info "bench/main.exe" ~man
          ~doc:"regenerate the paper's tables and figures")
       Term.(
         ret
           (const run $ experiments
           $ switch [ "big" ] "Full workload scales (slow; default: scaled down)."
           $ json_arg
           $ Cli.seed_arg ~doc:"Campaign, fuzz and chaos base seed."
           $ Cli.smoke_arg
               ~doc:
                 "CI-sized grids: the 3-fault campaign subset at one seed, \
                  and fewer fuzz, topdown and serve jobs."
           $ switch [ "perf" ]
               "Campaign: attach pipeline tracers (verdicts must be identical)."
           $ Cli.harness
               ~ref_kind:
                 (Cli.ref_arg
                    ~doc:
                      "REF backend of the campaign, fuzz and chaos grids and \
                       the DiffTest figures (default: MINJIE_REF, else iss; \
                       fuzz: both).")
               ())))
