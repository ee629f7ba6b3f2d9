(* Information probes (§III-B3).

   Probes are defined by the designer inside the design and extract
   verification information during simulation.  As in the paper, the
   per-instruction commit probe is the basic building block: a
   superscalar core instantiates it once per commit slot, and the
   number of instantiations implicitly conveys the commit width to the
   verification side.

   The commit probe is a fixed structure here too: a core owns one
   mutable [commit] record per commit slot and refills the slots every
   cycle, so retiring an instruction allocates nothing.  A slot is valid
   until the next [Soc.tick]; a consumer that keeps a commit beyond its
   cycle keeps a [copy]. *)

open Riscv

(* One committed instruction (or fused instruction pair).  A load or
   store (an AMO is both) reports one access: [p_mem_paddr],
   [p_mem_size] and [p_mem_cycle] are valid when [p_has_load] or
   [p_has_store] is set, with the value read in [p_load_value] and the
   value written in [p_store_value]. *)
type commit = {
  p_hartid : int;
  mutable p_cycle : int;
  mutable p_pc : int64;
  mutable p_insn : Insn.t;
  mutable p_second : Insn.t option; (* fusion partner *)
  mutable p_next_pc : int64;
  mutable p_trap : (Trap.exc * int64) option;
  mutable p_interrupt : Trap.irq option;
  mutable p_has_load : bool;
  mutable p_has_store : bool;
  mutable p_mem_paddr : int64;
  mutable p_mem_size : int;
  mutable p_mem_cycle : int; (* cycle the memory was actually read/written *)
  mutable p_load_value : int64;
  mutable p_store_value : int64;
  mutable p_sc_failed : bool;
  mutable p_csr_read : (int * int64) option;
  mutable p_mmio : bool;
  mutable p_instret : int; (* after this commit *)
}

let nop = Insn.Op_imm (ADD, 0, 0, 0L)

let make_slot ~hartid =
  {
    p_hartid = hartid;
    p_cycle = 0;
    p_pc = 0L;
    p_insn = nop;
    p_second = None;
    p_next_pc = 0L;
    p_trap = None;
    p_interrupt = None;
    p_has_load = false;
    p_has_store = false;
    p_mem_paddr = 0L;
    p_mem_size = 0;
    p_mem_cycle = 0;
    p_load_value = 0L;
    p_store_value = 0L;
    p_sc_failed = false;
    p_csr_read = None;
    p_mmio = false;
    p_instret = 0;
  }

(* Back to [make_slot]'s state, dropping every value the slot points
   at. *)
let blank p =
  p.p_cycle <- 0;
  p.p_pc <- 0L;
  p.p_insn <- nop;
  p.p_second <- None;
  p.p_next_pc <- 0L;
  p.p_trap <- None;
  p.p_interrupt <- None;
  p.p_has_load <- false;
  p.p_has_store <- false;
  p.p_mem_paddr <- 0L;
  p.p_mem_size <- 0;
  p.p_mem_cycle <- 0;
  p.p_load_value <- 0L;
  p.p_store_value <- 0L;
  p.p_sc_failed <- false;
  p.p_csr_read <- None;
  p.p_mmio <- false;
  p.p_instret <- 0

(* Every field holds an immutable value, so a flat copy is a deep one. *)
let copy (c : commit) = { c with p_cycle = c.p_cycle }

(* A store leaving the store buffer for the cache hierarchy: feeds the
   Global Memory of the multi-core diff-rule. *)
type store_drain = { d_hartid : int; d_cycle : int; d_paddr : int64; d_size : int; d_value : int64 }

type sinks = {
  mutable on_commit : commit -> unit;
  mutable on_drain : store_drain -> unit;
  mutable on_cache_event : Softmem.Event.t -> unit;
}

let null_sinks () =
  {
    on_commit = (fun _ -> ());
    on_drain = (fun _ -> ());
    on_cache_event = (fun _ -> ());
  }
