(** SoC wiring: cores, cache tree, DRAM model, CLINT, and the cycle
    loop.

    YQH: core -> (L1I, L1D, PTW) -> L2 -> DRAM.
    NH: two cores, each with a private L2, under a shared L3.

    The shared level's directory generates the inter-core Probe
    traffic; store drains from any core invalidate sibling LR
    reservations. *)

type t = {
  cfg : Config.t;
  plat : Riscv.Platform.t;
  cores : Core.t array;
  l2s : Softmem.Cache.t array;
  l3 : Softmem.Cache.t option;
  dram : Softmem.Dram.t;
  mutable now : int;
  mutable event_sink : Softmem.Event.sink;
  mutable fault_hooks : (t -> unit) list;
  nodes : Softmem.Cache.t array;
      (** every cache node, collected once at [create] (the per-tick
          clock and [set_event_sink] walk this, not the tree) *)
  effects : Core.effects array;
      (** per-core plan slot of the running [tick] (each core's own
          preallocated buffers) *)
}

val create :
  ?dram_size:int -> ?phase_order:Core.phase_order -> Config.t -> t
(** [phase_order] (default {!Core.Default_order}) is every core's
    phase-1 planner order. *)

val set_event_sink : t -> Softmem.Event.sink -> unit
(** Install a coherence-event sink on every cache node. *)

val tables : t -> Riscv.Cow.t list
(** Every copy-on-write micro-architectural table -- the cache tree's
    metadata, then each core's predictor and TLB tables -- in a fixed
    order, so a restored copy's tables line up by position (LightSSS
    snapshots these). *)

val load_program : t -> Riscv.Asm.program -> unit
(** Load the image and point every hart's boot pc at the entry. *)

val add_fault_hook : t -> (t -> unit) -> unit
(** Register a hook run at the effect boundary of every [tick]: after
    all cores have planned the cycle ([Core.step]) and before any plan
    is applied ([Core.apply]).  Fault models use this as their
    cycle-triggered injection point; a mutation made here is exactly
    the hazard phase-2 revalidation defends against.  Hooks are part
    of the SoC graph, so LightSSS snapshots carry them into replays. *)

val tick : t -> unit
(** One clock cycle, two-phase: CLINT and cache clocks advance, every
    core plans against the frozen snapshot, fault hooks fire, then the
    plans are applied in hart order. *)

val run : ?max_cycles:int -> ?stop:(unit -> bool) -> t -> int
(** Run to exit / budget / [stop]; returns cycles simulated. *)

val exited : t -> bool

val exit_code : t -> int option

val attach_tracers : ?capacity:int -> t -> Perf.Pipetrace.t array
(** Install a fresh pipeline tracer on every core (index = hartid) and
    return them.  Tracers are plain data inside the core graph, so
    LightSSS snapshots carry the trace window into replays. *)

val counter_snapshot : t -> hartid:int -> (string * int) list
(** [Core.counter_snapshot] of one hart. *)

val inject_l2_race_bug : t -> core:int -> unit
(** Plant the §IV-C fault: the core's private L2 mishandles Probes
    overlapping in-flight Acquires and later serves stale data. *)

val inject_skip_probe_bug : t -> unit
(** Plant a protocol fault at the shared level: Trunk grants skip the
    sibling probes (caught by the permission scoreboard). *)
