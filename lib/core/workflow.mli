(** "Put it all together" (paper §III-E and the §IV-C case study):
    the MINJIE verification workflow.

    A DUT runs in fast mode under DiffTest with LightSSS taking
    periodic snapshots.  When DiffTest reports a mismatch, the older
    of the two retained snapshots is restored and at most two
    intervals are replayed with debugging enabled -- ArchDB capturing
    every commit, store drain and coherence transaction -- and the
    report carries the localisation queries (the Acquire/Probe
    overlaps of the §IV-C race). *)

type debug_report = {
  first_failure : Rule.failure;
  replay_failure : Rule.failure option;
      (** the failure as reproduced in the debug-mode replay *)
  replay_from_cycle : int;
  replay_cycles : int;
  db : Archdb.t; (** full recording of the region of interest *)
  overlaps : Archdb.overlap list; (** the §IV-C race signature *)
  drains_near_failure : Xiangshan.Probe.store_drain list;
  snapshots_taken : int;
  snapshot_seconds : float;
  replay_traces : Perf.Pipetrace.t array;
      (** with [~perf:true], per-hart pipeline trace windows around the
          failure (ring buffers restored from the snapshot and replayed
          to the failure); empty otherwise *)
}

type outcome = Verified of int (** exit code *) | Debugged of debug_report

val memories_of : Difftest.t -> Riscv.Memory.t list
(** Every COW memory a DiffTest instance owns (DUT + all REFs), in a
    stable order -- the enumeration LightSSS snapshots and restores. *)

val tables_of : Difftest.t -> Riscv.Cow.t list
(** Every COW micro-architectural table of the DUT (cache metadata,
    predictors, TLBs; {!Xiangshan.Soc.tables}), in a stable order. *)

val subject_of : Difftest.t -> Difftest.t Lightsss.subject
(** The standard snapshot subject: COW memories and tables plus the
    simulator graph, with the Global Memory detached (it is shared
    with the replay like fork-shared pages rather than copied per
    snapshot) and the REFs' derived block caches left out (a restored
    REF recompiles lazily). *)

val restore_shared : Difftest.t -> Lightsss.snapshot -> Difftest.t
(** Restore a snapshot of [dt] into a fresh instance sharing the live
    Global Memory. *)

val run_verified :
  ?snapshot_interval:int ->
  ?max_cycles:int ->
  ?inject:(Xiangshan.Soc.t -> unit) ->
  ?ref_kind:Ref_model.kind ->
  ?perf:bool ->
  prog:Riscv.Asm.program ->
  Xiangshan.Config.t ->
  outcome
(** Build the SoC, apply the optional fault [inject]ion, and run the
    full fast-mode -> replay -> diagnose loop.  [ref_kind] selects
    the reference-model backend (default: {!Ref_model.Iss}).
    [perf] (default false) attaches pipeline tracers whose windows
    are reported in [replay_traces] on failure; counters themselves
    are always on, and neither affects any verdict. *)

val soc_counters : Xiangshan.Soc.t -> (string * int) list
(** Per-hart counter snapshots merged by name (summed across harts),
    sorted by name.  On a freshly created SoC every counter starts at
    zero, so the final snapshot is the run's delta. *)

val run_collect :
  ?snapshot_interval:int ->
  ?max_cycles:int ->
  ?inject:(Xiangshan.Soc.t -> unit) ->
  ?ref_kind:Ref_model.kind ->
  ?perf:bool ->
  prog:Riscv.Asm.program ->
  Xiangshan.Config.t ->
  outcome * (string * int) list
(** Like {!run_verified}, additionally returning the DUT's merged
    final counter snapshot ({!soc_counters} of the original instance,
    not of a debug replay) -- the fuzzer's coverage feed. *)
