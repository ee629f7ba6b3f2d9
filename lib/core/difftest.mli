(** DiffTest: the DRAV co-simulation framework for RISC-V processors
    (paper §III-B, Figure 4).

    A DUT ({!Xiangshan.Soc}) and one single-core REF per hart run
    simultaneously; the DUT's commit stream, extracted by the
    information probes, drives the REFs instruction by instruction.
    Diff-rules reconcile legal micro-architecture-dependent
    divergence; anything they cannot justify aborts the co-simulation
    with a located failure, which the LightSSS workflow can replay in
    debug mode.

    The REF backend is pluggable (see {!Ref_model}): the plain ISS
    interpreter or the NEMU block-compiled engine in non-autonomous
    REF mode, selected per instance with [?ref_kind].

    Always-on checks beyond the rules: per-commit pc and next-pc
    agreement, full architectural-state comparison at every cycle
    boundary, the permission scoreboard on the shared cache level, a
    per-hart hang watchdog (a hart that stops committing fails with
    the rule ["hang-watchdog"], the failure message carrying the
    retirement stall site), and per-hart store accounting (every
    committed store must drain to memory with the right value, in
    order, within a timeout: rules ["store-drain-timeout"],
    ["store-drain-order"], ["store-drain-value"]). *)

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
(** One co-simulated cycle: advance the SoC, drain and check each
    hart's commit queue, compare architectural states, check the
    scoreboard and the watchdog. *)

val run : ?max_cycles:int -> t -> status

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
