(** Information probes (paper §III-B3).

    Probes are defined by the designer inside the design and extract
    verification information during simulation.  The per-instruction
    commit probe is the basic building block: a superscalar core
    instantiates it once per commit slot, implicitly conveying the
    commit width to the verification side; the store-drain probe feeds
    the Global Memory; the cache-event stream feeds the permission
    scoreboard and ArchDB.

    {b Slot lifetime.}  A core owns a fixed array of {!commit} slots,
    one per commit slot ([Core.t.slots]), and refills them every
    cycle: retiring an instruction allocates nothing.  A slot is valid
    from the cycle that filled it until the next [Soc.tick].  DiffTest
    checks the slots in place after each tick; any other consumer that
    keeps a commit beyond its cycle (ArchDB's debug recording, a test
    collecting a stream) keeps a {!copy}. *)

open Riscv

(** One committed instruction (or fused pair).  A load or store (an
    AMO is both) reports one memory access: [p_mem_paddr],
    [p_mem_size] and [p_mem_cycle] (when the access touched memory)
    are valid when [p_has_load] or [p_has_store] is set; the value
    read is [p_load_value], the value written [p_store_value]. *)
type commit = {
  p_hartid : int;
  mutable p_cycle : int;
  mutable p_pc : int64;
  mutable p_insn : Insn.t;
  mutable p_second : Insn.t option;
  mutable p_next_pc : int64;
  mutable p_trap : (Trap.exc * int64) option;
  mutable p_interrupt : Trap.irq option;
  mutable p_has_load : bool;
  mutable p_has_store : bool;
  mutable p_mem_paddr : int64;
  mutable p_mem_size : int;
  mutable p_mem_cycle : int;
  mutable p_load_value : int64;
  mutable p_store_value : int64;
  mutable p_sc_failed : bool;
  mutable p_csr_read : (int * int64) option;
  mutable p_mmio : bool;
  mutable p_instret : int;  (** minstret after this commit *)
}

val make_slot : hartid:int -> commit
(** A blank slot for hart [hartid]. *)

val blank : commit -> unit
(** Reset a slot to {!make_slot}'s state.  Once DiffTest has checked a
    cycle's slots, their values are dead; a LightSSS snapshot blanks
    them so its image does not carry them. *)

val copy : commit -> commit
(** A commit that outlives its slot's next refill. *)

(** A store leaving the store buffer for the cache hierarchy. *)
type store_drain = {
  d_hartid : int;
  d_cycle : int;
  d_paddr : int64;
  d_size : int;
  d_value : int64;
}

type sinks = {
  mutable on_commit : commit -> unit;
      (** called with each slot as it is filled; see the slot lifetime
          above *)
  mutable on_drain : store_drain -> unit;
  mutable on_cache_event : Softmem.Event.t -> unit;
}

val null_sinks : unit -> sinks
