(** The XiangShan-like superscalar out-of-order core (paper
    Figure 10).

    Pipeline: decoupled fetch with BPU-directed bundles, decode with
    optional macro-op fusion, rename with move elimination, dispatch
    into distributed issue queues, execute-at-issue with per-class
    latencies, a load/store unit with store queue + store buffer, and
    in-order commit maintaining the architectural state DiffTest
    observes.  System instructions, atomics and MMIO execute at the
    ROB head; `sfence.vma` drains the store buffer and flushes the
    TLBs.  Fidelity notes are in DESIGN.md.

    Cycle semantics are two-phase (DESIGN.md "Two-phase cycle
    semantics"): [step] evaluates every unit against the read-only
    start-of-cycle state into the core's preallocated {!effects}
    buffers;
    [apply] commits those effects in one canonical order with explicit
    arbitration for structural hazards.  [cycle] is the composition.
    Phase-1 order independence is enforced by the seeded permutation
    harness ([Shuffle], test/test_twophase.ml). *)

open Riscv

type fetch_item = {
  fi_pc : int64;
  fi_si : Predecode.t;
      (** the instruction's static record, from the {!Predecode} memo *)
  fi_pred_next : int64;
  fi_fault : (Trap.exc * int64) option;
  mutable fi_fetched_at : int;  (** cycle the item entered the fetch queue *)
}

type fetch_bundle = { fb_ready_at : int; fb_items : fetch_item list }

(** The fetch queue: a ring of [fetch_buffer] slots holding [fq_len]
    items from [fq_head], in fetch order. *)
type fetch_queue = {
  fq_items : fetch_item array;
  mutable fq_head : int;
  mutable fq_len : int;
}

(** {1 Phase-1 plan buffers}

    Each unit's planner writes its plan for the cycle, computed from
    the read-only start-of-cycle state, into its own buffer of the
    core's preallocated {!effects}; {!apply} commits them in the
    canonical order and resets the buffers that hold uops, so a
    snapshot between cycles holds no stale plan.  They are plans, not
    state deltas: application performs the mutation through the
    unit's own code path after revalidating any claim a flush or a
    boundary fault hook may have invalidated.  Issue selections live
    in each {!Iq}'s own plan buffer. *)

type commit_eff = {
  mutable ce_mtip : bool;  (** CLINT timer-interrupt line, sampled *)
  mutable ce_msip : bool;  (** CLINT software-interrupt line, sampled *)
}

type issue_eff = {
  mutable ie_ready_total : int;
      (** Figure 15: ready instructions before selection *)
}

type drain_eff = {
  mutable de_fire : bool;  (** store buffer eligible to drain one entry *)
}

type stall_kind =
  | Rob_full
  | Iq_full
  | Lq_full
  | Sq_full
  | Freelist_int
  | Freelist_fp

type disp_plan = {
  mutable pl_seq : int;
      (** an accepted slot's uop (-1 = none), seq pre-assigned from
          the snapshot; the planner initialised its ROB row, whose
          source fields hold architectural register numbers that
          phase 2 renames in place *)
  mutable pl_item : fetch_item;  (** head fetch-queue item consumed *)
  mutable pl_fused : bool;  (** the next item is consumed too *)
  mutable pl_iq : int;  (** target IQ index, -1 = none (at-commit / fault) *)
  mutable pl_eliminated : bool;
      (** move elimination: alias, no alloc, no issue *)
}

type dispatch_eff = {
  dp_plans : disp_plan array;
      (** [decode_width] slots; [0, dp_n) in program order *)
  mutable dp_n : int;
  mutable dp_stall : stall_kind option;  (** first scarce resource, if any *)
  dp_iq_occ : int array;
      (** planner scratch: per-IQ occupancy, snapshot plus claims *)
}

type fetch_eff = {
  mutable fe_complete : bool;
      (** the in-flight bundle reaches the fetch queue *)
  mutable fe_start : bool;
      (** a new bundle may start (headroom from snapshot) *)
}

type effects = {
  ef_commit : commit_eff;
  ef_issue : issue_eff;
  ef_drain : drain_eff;
  ef_dispatch : dispatch_eff;
  ef_fetch : fetch_eff;
}

(** Performance counters, including the Figure 15 ready-instruction
    histogram and the PUBS high-priority accounting. *)
type perf = {
  mutable p_cycles : int;
  mutable p_instrs : int;
  mutable p_uops : int;
  mutable p_fused : int;
  mutable p_moves_eliminated : int;
  mutable p_loads : int;
  mutable p_stores : int;
  mutable p_traps : int;
  mutable p_interrupts : int;
  mutable p_flushes : int;
  ready_hist : int array;
  mutable p_dispatched : int;
  mutable p_hi_prio : int;
}

(** Dense handles into the counter registry, resolved at [create] so
    the per-cycle instrumentation is a plain array store. *)
type ids

(** Phase-1 evaluation order.  [Default_order] runs the unit planners
    in the canonical fixed order; [Shuffle seed] runs them in a fresh
    seeded permutation every cycle.  The two must be byte-identical in
    every observable (DiffTest verdicts, ArchDB, counter snapshots) --
    the shuffle mode exists purely to enforce phase-1 purity. *)
type phase_order = Default_order | Shuffle of int

type t = {
  cfg : Config.t;
  hartid : int;
  arch : Arch_state.t; (** committed architectural state *)
  plat : Platform.t;
  bpu : Bpu.t;
  tlb : Tlb.t;
  l1i : Softmem.Cache.t;
  l1d : Softmem.Cache.t;
  rename : Rename.t;
  rob : Rob.t;
  iqs : Iq.t array;
  iq_route : int array array;
      (** dispatch routing, built at [create]: for each exec class,
          the indices of the IQs accepting it, in configuration
          order *)
  lsu : Lsu.t;
  probes : Probe.sinks;
  slots : Probe.commit array;
      (** one commit probe per commit slot ([decode_width] of them),
          refilled every cycle: see {!Probe} for the slot lifetime *)
  mutable n_slots : int;
      (** [slots.(0 .. n_slots - 1)] hold the commits of the last
          [apply], in retirement order *)
  perf : perf;
  ctrs : Perf.Perf_counter.t;
      (** named counter registry; pure observation, never consulted by
          the pipeline *)
  ids : ids;
  def_table : int array;
  mutable now : int;
  mutable seq : int;
  mutable fetch_pc : int64;
  mutable fetch_stalled : bool;
  mutable inflight : fetch_bundle option;
  fetch_queue : fetch_queue;
  plan : effects;  (** this core's phase-1 buffers, reused every cycle *)
  mutable commit_busy_until : int;
  mutable recover_until : int;
  mutable recover_misp : bool;
  mutable icache_stall_until : int;
  mutable tracer : Perf.Pipetrace.t option;
      (** opt-in pipeline tracer; [None] (the default) keeps the hot
          paths allocation-free *)
  mutable halted : bool;
  mutable on_store_drain : int64 -> int -> unit;
  mutable bug_trust_bpu : int;
      (** fault injection: for the next N resolved mispredictions,
          follow the (possibly corrupted) prediction instead of
          redirecting -- wrong-path instructions then commit *)
  mutable flushed_at : int;
      (** cycle of the most recent flush; [apply] uses it to cancel
          same-cycle plans that the redirect invalidated *)
  mutable phase_order : phase_order;
  mutable tlb_walk_seen : int;
      (** PTW walks observed up to the previous cycle's end; [apply]
          charges the delta to the tlb.walk_during_flush edge probe
          while inside a flush-recovery window *)
}

val create :
  ?phase_order:phase_order ->
  Config.t ->
  hartid:int ->
  plat:Platform.t ->
  l1i:Softmem.Cache.t ->
  l1d:Softmem.Cache.t ->
  ptw_port:Softmem.Cache.t ->
  t

val set_phase_order : t -> phase_order -> unit

val set_boot_pc : t -> int64 -> unit

val sync_regfile_from_arch : t -> unit
(** Copy the committed register values into the mapped physical
    registers (after restoring a checkpoint). *)

val flush :
  ?cause:[ `Misp | `Trap | `Serial | `Other ] ->
  t ->
  after:int ->
  target:int64 ->
  unit
(** Squash every uop with seq > [after], roll the rename state back,
    and restart fetch at [target].  Records [flushed_at] so [apply]
    cancels plans the redirect invalidated. *)

val mispredict_penalty : int

val step : t -> effects
(** Phase 1: evaluate every unit planner against the read-only
    start-of-cycle state, in the configured {!phase_order}, and return
    the filled buffers ([t.plan]).  Mutates nothing but the plan
    buffers and the ROB rows past the tail, where the dispatch planner
    initialises the uops it plans to dispatch.  Under [Default_order]
    it allocates only a fused pair's fusion descriptor. *)

val apply : t -> effects -> unit
(** Phase 2: advance the clock and commit the effects in the canonical
    order (commit, issue, drain, dispatch, fetch), revalidating
    snapshot claims against the live structures; resets the dispatch
    and IQ plan buffers. *)

val cycle : t -> unit
(** One clock: [apply t (step t)].  Fault hooks that must fire at the
    effect boundary go through [Soc.tick], which separates the two
    calls. *)

val ipc : t -> float

val set_tracer : t -> Perf.Pipetrace.t option -> unit

val counter_snapshot : t -> (string * int) list
(** Every counter the core maintains, as (name, value) pairs: the
    registry (top-down buckets [td.*], stall attribution [stall.*],
    frontend/ROB/commit histograms), the legacy perf block [core.*],
    and the per-structure stats [bpu.* lsu.* tlb.* l1i.* l1d.*].
    Suitable for [Perf.Topdown.of_counters]. *)

val stall_site : t -> string
(** One-line snapshot of the retirement bottleneck (ROB head uop and
    queue occupancies), reported by the hang watchdog. *)
