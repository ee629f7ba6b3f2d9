(** Non-autonomous REF mode for the NEMU engine (paper §III-B, §III-D).

    The DiffTest-facing sibling of {!Fast}: instead of fused
    superblock closures it compiles superblocks of decoded
    instructions and retires exactly one per {!step}, emitting the
    same commit records as the {!Iss.Interp} REF -- so diff-rules can
    force events and patch state between any two commits.  Fetch
    translation and decode are paid once per block, data accesses go
    through the {!Mach} host TLB, and the register files are unboxed
    Bigarrays: the sources of the >1.5x co-simulation speedup over
    the plain ISS REF.

    Patching is uop-cache-safe: blocks record their physical code
    pages, and {!patch_mem} invalidates every block compiled from a
    written page before the write lands; fence.i / sfence.vma / satp
    writes flush the whole block cache. *)

open Riscv

type t = {
  m : Mach.t;
  caches : block array array;
      (** U / S / M partitions, direct-mapped; [[||]] until first used *)
  mutable page_index : (int64, (int * int) list) Hashtbl.t;
  mutable cur : block;
  mutable cur_ix : int;
  mutable cur_pc : int64;
  mutable forced : forced option;
  mutable force_sc_fail : bool;
  mutable instret : int;
  report : Iss.Interp.report;
      (** the one commit record every {!step} reports into *)
  mutable compiled : int;
  mutable flushes : int;
  mutable invalidations : int;
  mutable slow_lookups : int;
}

and block = {
  b_pc : int64;
  b_insns : Insn.t array;
  b_ops : op array;
  b_pages : int64 array;
      (** physical 4 KiB code pages the block was fetched from *)
  b_pcs : int64 array;
      (** [b_pc + 4*i] for [i = 0 .. length b_insns], boxed once per
          block: the pcs a straight-line step reports *)
}

and op =
  | O_straight of (unit -> unit)
      (** pure register op (a {!Fast.compile_straight} routine);
          next pc = pc+4 *)
  | O_jump of (int64 -> int64)
      (** control flow; returns the next pc.  A taken jump drops the
          cursor, so the next step looks its target up in the block
          cache. *)
  | O_slow  (** instrumented path: memory / CSR / system *)

and forced = Force_exception of Trap.exc * int64 | Force_interrupt of Trap.irq

val create : ?dram_size:int -> ?hartid:int -> unit -> t

val load_program : t -> Asm.program -> unit

val exited : t -> bool

val exit_code : t -> int option

(** {1 DRAV control surface} *)

val force_exception : t -> Trap.exc -> int64 -> unit

val force_interrupt : t -> Trap.irq -> unit

val force_sc_failure : t -> unit

val patch_reg : t -> int -> int64 -> unit

val patch_freg : t -> int -> int64 -> unit

val get_reg : t -> int -> int64

val patch_mem : t -> paddr:int64 -> size:int -> value:int64 -> unit
(** Invalidate any block compiled from the written page(s), then
    write physical memory. *)

val detach_blocks : t -> unit -> unit
(** Unhook the block cache, its page index and the cursor -- state
    derived from memory -- so a marshalled image leaves them out, and
    return the re-hook.  A copy marshalled while detached starts with
    an empty block cache and recompiles lazily. *)

val set_counters : t -> cycle:int64 -> instret:int64 -> unit

val set_mcycle : t -> int64 -> unit

val set_mip_bit : t -> int -> bool -> unit

val memories : t -> Memory.t list
(** The COW memories this REF owns (for LightSSS snapshots). *)

(** {1 Execution} *)

val step : t -> Iss.Interp.step_result
(** Retire exactly one instruction (or forced event), reporting the
    commit DiffTest checks into [t.report] (valid until the next
    step); returns [t.report.committed] or [Exited]. *)

val run : ?max_insns:int -> t -> int

val diff_against : t -> Arch_state.t -> string option
(** First difference between the DUT architectural state and this
    REF, in the {!Riscv.Arch_state.diff} message format. *)

val flush_blocks : t -> unit
