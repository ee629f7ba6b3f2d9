(** Fault-injection campaign driver: prove DRAV catches what we break.

    Every (fault, seed) cell builds the fault's designated workload and
    SoC configuration, installs the fault from the {!Fault} registry,
    and runs the full {!Workflow.run_verified} loop (fast mode +
    LightSSS snapshots, debug replay on failure).  A cell passes only
    if all three hold:

    - the run is NOT verified (an undetected fault -- an "escape" --
      is a hard campaign failure);
    - the rule that fired is one the fault declares as expected;
    - the failure reproduces in the snapshot replay, restored from at
      most two snapshot intervals before the first failure.

    The per-cell report carries the detection latency in cycles since
    the injection trigger and in commits checked, plus the replay
    window -- the numbers behind the EXPERIMENTS.md campaign table. *)

type cell = {
  c_fault : string;
  c_layer : string;
  c_workload : string;
  c_config : string;
  c_seed : int;
  c_trigger : int;
  c_detected : bool;
  c_rule : string;  (** rule that detected the fault, or "" *)
  c_rule_expected : bool;
  c_failure_cycle : int;
  c_latency_cycles : int;  (** failure cycle - trigger cycle *)
  c_commits : int;  (** commits checked when the failure fired *)
  c_msg : string;
  c_replayed : bool;  (** the replay reproduced a failure *)
  c_replay_rule : string;
  c_replay_window : int;
      (** cycles between the replayed-from snapshot and the failure *)
  c_replay_within : bool;  (** window <= 2 snapshot intervals *)
  c_ok : bool;
}

type summary = {
  cells : cell list;
  total : int;
  detected : int;
  escapes : int;
  rule_mismatches : int;
  replay_misses : int;
  snapshot_interval : int;
  resumed : int;  (** cells replayed from the journal, not recomputed *)
  retried : int;  (** supervised job re-runs (see {!Supervisor}) *)
  recovered : int;  (** failed cells that converged to a verdict *)
}

val find_workload : string -> Workloads.Wl_common.t
(** Resolve a registry workload name against the campaign catalogue
    (the full workload library plus campaign-specific variants).
    @raise Invalid_argument on an unknown name. *)

val run_cell :
  ?snapshot_interval:int ->
  ?max_cycles:int ->
  ?ref_kind:Ref_model.kind ->
  ?phase_order:Xiangshan.Core.phase_order ->
  ?perf:bool ->
  fault:Fault.t ->
  seed:int ->
  unit ->
  cell

val run :
  ?faults:string list ->
  ?seeds:int list ->
  ?snapshot_interval:int ->
  ?max_cycles:int ->
  ?ref_kind:Ref_model.kind ->
  ?phase_order:Xiangshan.Core.phase_order ->
  ?perf:bool ->
  ?jobs:int ->
  ?journal:string ->
  ?resume:bool ->
  ?retries:int ->
  ?timeout:float ->
  ?progress:(cell -> unit) ->
  unit ->
  summary
(** Run the campaign grid.  [faults] defaults to the full registry,
    [seeds] to [[1; 2]], [ref_kind] to {!Ref_model.Iss}.
    [phase_order] (default {!Xiangshan.Core.Default_order}) is set on
    every cell's cores before its fault is installed.

    Each cell is one {!Grid} job: in-process at [jobs = 1] (the
    default), else across [jobs] forked workers under {!Supervisor}
    supervision.  Cells are deterministic, so the summary is identical
    at every width, cell for cell.  A cell whose job raises, crashes or
    times out after its [retries] budget (default 0) becomes an
    escape-shaped cell ([c_ok = false], the failure message in
    [c_msg]) rather than aborting the grid -- at [jobs = 1] exactly as
    at [jobs = N].  [timeout] is the per-cell pool timeout in seconds.
    [progress] is called once per cell with its final verdict -- in
    completion order when parallel.

    [journal] names a {!Journal} file: every completed cell is
    appended (checksummed, fsynced) as it lands.  With
    [resume = true], cells already in a matching-key journal are
    replayed instead of recomputed and only the remainder runs; the
    merged summary is byte-identical to an uninterrupted run's,
    because cells are deterministic and merging is in grid order.
    Without [resume] an existing journal at that path is discarded.
    Failed cells are never journaled, so a resume also re-attempts
    them.

    [perf] threads through to {!Workflow.run_verified}: pipeline
    tracers are attached but cells are pure verdict data, so the
    summary is bit-identical with it on or off. *)

val failed : summary -> bool
(** Any escape, rule mismatch or replay miss: the verification stack
    missed a fault. *)

val smoke_faults : string list
(** The CI-sized fault subset: three faults whose cells resolve in a
    few thousand cycles. *)

val grid_spec : smoke:bool -> seed:int -> string list option * int list
(** The front ends' grid: [(faults, seeds)] for {!run} -- the smoke
    subset at [seed] alone, or the full registry at [seed] and
    [seed + 1]. *)

val string_of_cell : cell -> string
