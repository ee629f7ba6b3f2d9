(** The checkpoint-based performance-evaluation flow (paper §III-D3):
    NEMU profiles the workload collecting BBVs, SimPoint selects
    representative intervals, NEMU re-runs to capture checkpoints at
    their boundaries, and the cycle-level model simulates each sample;
    the SimPoint-weighted IPC estimates the whole-program score.

    This is the flow that replaces a >150-hour FPGA run with hours of
    parallel RTL simulation in the paper; the accuracy tests here hold
    the sampled estimate within a fraction of the full run. *)

type sampled_checkpoint = {
  sc_index : int;
  sc_weight : float;
  sc_checkpoint : Arch_checkpoint.t;
}

type generation_stats = {
  gen_instructions : int;
  gen_seconds : float;
  gen_intervals : int;
  gen_selected : int;
}

val profile :
  ?interval:int -> ?max_insns:int -> Riscv.Asm.program -> Bbv.vector array * int
(** Pass 1 alone: run the program on NEMU with a {!Bbv} profiler
    attached; returns the vectors, one per [interval] instructions
    (default 100,000), and the instructions retired. *)

val generate :
  ?interval:int ->
  ?max_k:int ->
  ?max_insns:int ->
  Riscv.Asm.program ->
  sampled_checkpoint list * generation_stats
(** Profile (pass 1), SimPoint-select, and capture (pass 2). *)

type sample_result = {
  sr_index : int;
  sr_weight : float;
  sr_instructions : int;
  sr_cycles : int;
  sr_ipc : float;
}

val simulate_checkpoint :
  ?warmup:int ->
  ?measure:int ->
  Xiangshan.Config.t ->
  sampled_checkpoint ->
  sample_result
(** Restore into a fresh SoC, warm the micro-architectural state by
    executing [warmup] instructions, then measure [measure]. *)

val simulate_all :
  ?warmup:int ->
  ?measure:int ->
  ?jobs:int ->
  ?retries:int ->
  Xiangshan.Config.t ->
  sampled_checkpoint list ->
  sample_result list
(** Simulate every checkpoint -- the paper's "parallel RTL
    simulation" analogue -- as one {!Minjie.Grid} job per sample, at
    [jobs] workers (default 1, in-process) with [retries] supervised
    re-runs per failed sample (default 0).  A sample whose job raises,
    crashes or times out is dropped with a warning on stderr, at
    [jobs = 1] exactly as at [jobs = N].  Results keep submission
    order. *)

val weighted_ipc : sample_result list -> float

val estimate :
  ?interval:int ->
  ?max_k:int ->
  ?warmup:int ->
  ?measure:int ->
  ?jobs:int ->
  ?retries:int ->
  Xiangshan.Config.t ->
  Riscv.Asm.program ->
  float * sample_result list * generation_stats
(** The full flow; returns (weighted IPC, per-sample results, stats). *)
