(** DiffTest: the DRAV co-simulation framework for RISC-V processors
    (paper §III-B, Figure 4).

    A DUT ({!Xiangshan.Soc}) and one single-core REF per hart run
    simultaneously; the DUT's commit stream, extracted by the
    information probes, drives the REFs instruction by instruction.
    Retirement allocates nothing on either side: after each
    [Soc.tick] DiffTest reads each core's commit slots in place, and
    each REF reports into its one reusable commit record (see
    {!Xiangshan.Probe} and {!Ref_model}).
    Diff-rules reconcile legal micro-architecture-dependent
    divergence; anything they cannot justify aborts the co-simulation
    with a located failure, which the LightSSS workflow can replay in
    debug mode.

    The REF backend is pluggable (see {!Ref_model}): the plain ISS
    interpreter or the NEMU block-compiled engine in non-autonomous
    REF mode, selected per instance with [?ref_kind].

    Always-on checks beyond the rules: per-commit pc and next-pc
    agreement, full architectural-state comparison at every cycle
    boundary where a hart's state can have changed (see {!tick}), the
    permission scoreboard on the shared cache level, a
    per-hart hang watchdog (a hart that stops committing fails with
    the rule ["hang-watchdog"], the failure message carrying the
    retirement stall site), and per-hart store accounting (every
    committed store must drain to memory with the right value, in
    order, within a timeout: rules ["store-drain-timeout"],
    ["store-drain-order"], ["store-drain-value"]).

    This module checks one cycle at a time ({!tick}); to run an
    instance to a verdict, with or without LightSSS snapshots, use
    {!Workflow.drive}, the one loop that does so. *)

type status = Running | Finished of int | Failed of Rule.failure

type t
(** A co-simulation instance.  Abstract: observe it through the
    accessors below. *)

val create :
  ?rules:Rule.t list ->
  ?with_scoreboard:bool ->
  ?ref_kind:Ref_model.kind ->
  prog:Riscv.Asm.program ->
  Xiangshan.Soc.t ->
  t
(** Wire probes into the SoC (which must already have the program
    loaded) and build one REF per hart running the same [prog].
    [rules] defaults to a fresh {!Rules.standard} set; [ref_kind]
    defaults to {!Ref_model.Iss}. *)

val tick : t -> unit
(** One co-simulated cycle: advance the SoC, check each hart's commit
    slots in place ([Xiangshan.Core.t.slots], valid until the next
    tick), compare architectural states, check the scoreboard and the
    watchdog.  Does nothing once a verdict is set.

    A hart's state is compared only when it can differ from the last
    compare's: its DUT [Arch_state.epoch] moved, it retired this cycle
    (its REF changes only then), the SoC has a fault hook installed
    (a hook may write any state directly), or this is the first tick
    after {!create} or {!compare_next_tick}.  A failure is therefore
    reported at the same cycle as a compare on every cycle would. *)

val compare_next_tick : t -> unit
(** Compare every hart's state at the next {!tick}, whatever its epoch.
    {!Workflow.restore_shared} calls it on a restored instance. *)

(** {1 Accessors} *)

val status : t -> status

val soc : t -> Xiangshan.Soc.t

val ref_kind : t -> Ref_model.kind

val refs : t -> Ref_model.t array
(** The per-hart reference models (index = hartid). *)

val ctx : t -> Rule.ctx

val global_mem : t -> Global_memory.t

val commits_checked : t -> int

val rule_fire_counts : t -> (string * int) list
(** Fire count per rule, sorted by rule name (deterministic across
    rule-list order and REF backends). *)

(** {1 Tuning and debug} *)

val set_commit_timeout : t -> int -> unit
(** Cycles without a commit before the hang watchdog fires
    (default 20_000). *)

val set_store_timeout : t -> int -> unit
(** Cycles a committed store may sit undrained before
    ["store-drain-timeout"] fires (default 10_000). *)

val enable_debug : t -> unit
(** Record rule-patch events into the debug log (used on the LightSSS
    replay instance). *)

val debug_log : t -> (int * string) list
