(** Common driver over the four interpreter engines compared in the
    paper's Figure 8:

    - [Nemu]: the fast threaded-code engine with a trace-organised uop
      cache ({!Fast});
    - [Spike_like]: direct-mapped decode cache + generic dispatch +
      SoftFloat arithmetic ({!Spike_like});
    - [Qemu_tci_like]: per-block bytecode of TCG-granularity micro-ops
      interpreted by a second-level dispatch loop ({!Qemu_tci_like});
    - [Dromajo_like]: fetch + decode on every step, no cache
      ({!Dromajo_like}). *)

type kind = Nemu | Spike_like | Qemu_tci_like | Dromajo_like

val all : kind list

val name : kind -> string

type stats = {
  insns : int;  (** instructions retired *)
  seconds : float;  (** wall-clock run time *)
  flushes : int;
      (** NEMU uop-cache whole flushes (system events, full tables) *)
  slow_lookups : int;  (** NEMU chain misses resolved via the hash list *)
  compiled : int;  (** NEMU superblocks compiled *)
}
(** Per-run statistics.  The uop-cache counters are zero for every
    engine but [Nemu]. *)

val run_program_stats :
  ?max_insns:int ->
  ?dram_size:int ->
  kind ->
  Riscv.Asm.program ->
  stats
(** [run_program_stats kind prog] runs [prog] to completion (or the
    budget) on a fresh machine and reports full statistics. *)

val run_program :
  ?max_insns:int ->
  ?dram_size:int ->
  kind ->
  Riscv.Asm.program ->
  int * float
(** [run_program kind prog] runs [prog] to completion (or the budget)
    on a fresh machine; returns (instructions retired, seconds). *)

val mips : int -> float -> float
(** Million instructions per second. *)

type warm
(** A resident NEMU instance for one program: the machine and its
    decoded superblock caches stay alive across runs, and
    each {!warm_run} first rolls the architectural state back to the
    post-load reset point (guest memory via a COW snapshot, CSRs via a
    pristine copy, registers/pc/CLINT/console by hand).  Compiled code
    is retained only when the previous run performed no cache-flush
    event (fence.i / sfence.vma / satp write); otherwise the caches
    are conservatively dropped, so results are architecturally
    identical to a cold run regardless of warmth. *)

val warm_create : ?dram_size:int -> Riscv.Asm.program -> warm

val warm_run : warm -> max_insns:int -> int
(** Run the program from reset; returns instructions retired.  The
    first run executes on the freshly loaded machine; later runs reset
    architectural state first and reuse warm decoded code when it is
    provably clean. *)

val warm_mach : warm -> Mach.t
(** The underlying machine, for reading exit code / console output /
    {!Mach.arch_state_digest} after a run. *)

val warm_runs : warm -> int
(** Number of {!warm_run}s performed so far. *)

val warm_compiled : warm -> int
(** Total instructions compiled by the engine since creation (does not
    reset across runs — a second run that recompiles nothing keeps
    this flat, which tests use to prove cache reuse). *)
