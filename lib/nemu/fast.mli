(** NEMU: the fast threaded-code interpreter (paper §III-D1,
    Figure 7), extended with superblock compilation.

    Every guest instruction is compiled once into a specialised
    closure whose operands -- register indices, immediates, the pc --
    are inlined at compile time.  Straight-line runs of closures are
    fused into superblocks executed by a single dispatch that
    bulk-updates [instret] and checks the run budget once per block;
    unconditional jumps are folded into the trace, so a superblock
    can span short then/else arms and loop latches.
    Entries are chained at block granularity: [seq] is the
    fall-through successor (the paper's "add 1 to upc"), [tgt] the
    taken target of a direct branch or jump (block chaining), and
    indirect jumps query the hash list in their terminal routine.  On
    the fast path an executed block returns the next entry directly --
    no fetch, no decode, no pc maintenance; only a chain miss falls
    back to the slow path (fetch + decode + compile + patch).

    Writes to x0 are redirected at compile time to the sink register
    slot (§III-D1b); common pseudo-instruction forms (li / mv / nop /
    ret / beqz ...) get dedicated routines with constants inlined
    (§III-D1c); floating point uses the host FPU (§III-D1d).

    Each privilege level owns its own cache table (entries are keyed
    by virtual pc, which maps to different code under different
    privileges): traps and mret/sret just redirect the active table,
    so syscall-heavy guests keep their compiled working set.  All
    tables are flushed together on events that can remap or rewrite
    code (sfence.vma, satp writes, fence.i); when a table reaches
    capacity a bounded victim set is evicted and stale chains into the
    victims self-heal by in-place recompilation.

    BBV profiling (§III-D3, [Checkpoint.Bbv]) turns jump folding off,
    so each superblock ends in at most one control-flow edge; each
    branch, jal or jalr terminator resolves its profiling routine once,
    when it is compiled, and calls it on every edge it takes.

    Precision: a trap from the i-th instruction of a block retires
    i+1 instructions with a precise epc, and {!run} retires exactly
    [max_insns] unless the machine exits (checkpointing relies on
    this). *)

type entry = {
  e_pc : int64;
  mutable e_len : int;  (** instructions retired by a full pass *)
  mutable body : (unit -> unit) array;
      (** coalesced execution slots: up to four guest instructions per
          dispatch; an instruction that can trap (load/store) may only
          be a slot's final element *)
  mutable steps : (unit -> unit) array;
      (** the unfused per-instruction view used for exact partial
          stops *)
  mutable offs : int array;
      (** byte offset from [e_pc] of each instruction plus a final
          slot for the pc after the last one; traces fold
          unconditional jumps, so bodies are not contiguous *)
  mutable slot_ret : int array;
      (** per-slot count of guest instructions retired through the end
          of the slot -- the exact retire count when the slot raises,
          since only its final instruction can *)
  mutable slot_offs : int array;
      (** per-slot byte offset from [e_pc] of the slot's final
          instruction (the only one that can raise) *)
  mutable exec : exec_fn;
  mutable seq : entry option;
  mutable tgt : entry option;
}

and exec_fn = entry -> entry option

type patch_slot = Patch_seq | Patch_tgt | Patch_none

type t = {
  m : Mach.t;
  caches : (int64, entry) Hashtbl.t array;
      (** one hash list per privilege (U/S/M): privilege switches
          redirect [cache] instead of flushing *)
  mutable cache : (int64, entry) Hashtbl.t;
      (** the active privilege's hash list *)
  capacity : int;
  mutable patch : entry option;
  mutable patch_slot : patch_slot;
  mutable flushes : int;
  mutable slow_lookups : int;
  mutable compiled : int;
  mutable evictions : int; (** entries demoted by capacity eviction *)
  mutable recompiles : int; (** evicted entries rebuilt via stale chains *)
  mutable prof_on : bool;
      (** BBV profiling is attached: blocks compiled while it is set
          fold no jumps, so each ends in at most one control-flow
          edge *)
  mutable prof_site : int64 -> unit -> unit;
      (** BBV profiling hook, resolved once per branch/jal/jalr
          terminator pc when its block is compiled; the returned
          routine runs on every edge that terminator takes while
          [prof_on].  Set it before {!flush}ing, so every block is
          recompiled against it. *)
}

val compile_straight : Mach.t -> Riscv.Insn.t -> (unit -> unit) option
(** Compile one instruction with no control flow and no system effect
    into a body routine closed over the machine (registers read at
    call time, so external patches stay visible), or [None] if the
    instruction needs the generic path.  Shared with the
    non-autonomous REF mode ({!Ref_core}), which reuses the routines
    for its pure register operations. *)

val create : ?capacity:int -> Mach.t -> t
(** [capacity] defaults to 16384 entries, the size the paper selects
    for both Spike's cache and NEMU's uop cache. *)

val flush : t -> unit

val rewind : t -> unit
(** Re-arm the engine for another run of the same program image while
    keeping all compiled superblocks: re-selects the cache
    table for the machine's current privilege and clears any pending
    chain patch.  Only sound when guest code is unchanged since the
    blocks were compiled; callers that restored memory must [flush]
    instead whenever the previous run performed any flush event
    (compare {!type:t}'s [flushes] counter across runs, as
    [Engine.warm_run] does). *)

val run : t -> max_insns:int -> int
(** Run to machine exit or the instruction budget; returns
    instructions retired. *)

val name : string
