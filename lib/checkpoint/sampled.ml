(* The checkpoint-based performance evaluation flow (§III-D3):

   1. profile the workload at NEMU speed, collecting BBVs;
   2. SimPoint-select representative intervals;
   3. re-run NEMU to each selected boundary and capture an
      architectural checkpoint;
   4. restore each checkpoint into the cycle-level model, warm up,
      measure, and combine per-checkpoint CPI with the SimPoint
      weights.

   This is the flow that turns a >150-hour FPGA run into hours of
   parallel RTL simulation in the paper; here it turns a full
   cycle-level run into a handful of short sampled ones. *)

type sampled_checkpoint = {
  sc_index : int; (* interval index *)
  sc_weight : float;
  sc_checkpoint : Arch_checkpoint.t;
}

type generation_stats = {
  gen_instructions : int;
  gen_seconds : float;
  gen_intervals : int;
  gen_selected : int;
}

(* Profile + select + capture. *)
let generate ?(interval = 100_000) ?(max_k = 8) ?(max_insns = 200_000_000)
    (prog : Riscv.Asm.program) : sampled_checkpoint list * generation_stats =
  (* pass 1: BBV profiling at NEMU speed *)
  let t0 = Unix.gettimeofday () in
  let m = Nemu.Mach.create () in
  Nemu.Mach.load_program m prog;
  let engine = Nemu.Fast.create m in
  let bbv = Bbv.create ~interval in
  Bbv.attach bbv engine;
  let n1 = Nemu.Fast.run engine ~max_insns in
  Bbv.finish bbv;
  let vectors = Bbv.vectors bbv in
  let selections = Simpoint.select vectors ~max_k in
  (* pass 2: capture checkpoints at the selected boundaries *)
  let m2 = Nemu.Mach.create () in
  Nemu.Mach.load_program m2 prog;
  let engine2 = Nemu.Fast.create m2 in
  let checkpoints =
    List.filter_map
      (fun (s : Simpoint.selection) ->
        let target = s.Simpoint.sp_interval * interval in
        let need = target - m2.Nemu.Mach.instret in
        if need < 0 then None
        else begin
          ignore (Nemu.Fast.run engine2 ~max_insns:(max 1 need));
          if (not m2.Nemu.Mach.running) && target > m2.Nemu.Mach.instret then
            None
          else
            Some
              {
                sc_index = s.Simpoint.sp_interval;
                sc_weight = s.Simpoint.sp_weight;
                sc_checkpoint = Arch_checkpoint.capture_mach m2;
              }
        end)
      selections
  in
  let t1 = Unix.gettimeofday () in
  ( checkpoints,
    {
      gen_instructions = n1 + m2.Nemu.Mach.instret;
      gen_seconds = t1 -. t0;
      gen_intervals = Array.length vectors;
      gen_selected = List.length checkpoints;
    } )

type sample_result = {
  sr_index : int;
  sr_weight : float;
  sr_instructions : int;
  sr_cycles : int;
  sr_ipc : float;
}

(* Simulate one checkpoint on the cycle-level model. *)
let simulate_checkpoint ?(warmup = 20_000) ?(measure = 20_000)
    (cfg : Xiangshan.Config.t) (sc : sampled_checkpoint) : sample_result =
  let soc = Xiangshan.Soc.create cfg in
  Arch_checkpoint.restore_soc sc.sc_checkpoint soc;
  let core = soc.Xiangshan.Soc.cores.(0) in
  (* warm up micro-architectural state (paper: branch predictors and
     caches are warmed by executing instructions) *)
  let target_warm = warmup in
  while
    core.Xiangshan.Core.perf.Xiangshan.Core.p_instrs < target_warm
    && (not (Xiangshan.Soc.exited soc))
    && soc.Xiangshan.Soc.now < 50 * (warmup + measure)
  do
    Xiangshan.Soc.tick soc
  done;
  let i0 = core.Xiangshan.Core.perf.Xiangshan.Core.p_instrs in
  let c0 = soc.Xiangshan.Soc.now in
  while
    core.Xiangshan.Core.perf.Xiangshan.Core.p_instrs - i0 < measure
    && (not (Xiangshan.Soc.exited soc))
    && soc.Xiangshan.Soc.now - c0 < 100 * measure
  do
    Xiangshan.Soc.tick soc
  done;
  let instrs = core.Xiangshan.Core.perf.Xiangshan.Core.p_instrs - i0 in
  let cycles = soc.Xiangshan.Soc.now - c0 in
  {
    sr_index = sc.sc_index;
    sr_weight = sc.sc_weight;
    sr_instructions = instrs;
    sr_cycles = cycles;
    sr_ipc = (if cycles = 0 then 0.0 else float_of_int instrs /. float_of_int cycles);
  }

(* Simulate every checkpoint -- the paper's "hours of parallel RTL
   simulation": the samples are independent, so each one is a grid
   job.  Results come back in submission order; a sample whose job
   raised, crashed or timed out is dropped (with a warning) exactly
   like a checkpoint that measured nothing, rather than poisoning the
   weighted estimate. *)
let simulate_all ?(warmup = 20_000) ?(measure = 20_000) ?jobs ?retries
    (cfg : Xiangshan.Config.t) (cks : sampled_checkpoint list) :
    sample_result list =
  let label sc = Printf.sprintf "sample@%d" sc.sc_index in
  Minjie.Grid.map ?jobs ?retries ~label
    (* every sample costs warmup+measure; the weight is the only
       static hint of how long its region really runs *)
    ~cost:(fun sc -> sc.sc_weight)
    ~of_failure:(fun sc msg ->
      Printf.eprintf "Sampled.simulate_all: dropping %s: %s\n%!" (label sc) msg;
      None)
    (fun sc -> Some (simulate_checkpoint ~warmup ~measure cfg sc))
    cks
  |> List.filter_map Fun.id

(* Weighted IPC estimate across all sampled checkpoints. *)
let weighted_ipc (results : sample_result list) : float =
  let wsum = List.fold_left (fun a r -> a +. r.sr_weight) 0.0 results in
  if wsum = 0.0 then 0.0
  else
    List.fold_left (fun a r -> a +. (r.sr_weight *. r.sr_ipc)) 0.0 results
    /. wsum

(* Full flow. *)
let estimate ?(interval = 100_000) ?(max_k = 8) ?(warmup = 20_000)
    ?(measure = 20_000) ?jobs ?retries (cfg : Xiangshan.Config.t)
    (prog : Riscv.Asm.program) : float * sample_result list * generation_stats
    =
  let cks, stats = generate ~interval ~max_k prog in
  let results = simulate_all ~warmup ~measure ?jobs ?retries cfg cks in
  (weighted_ipc results, results, stats)
