(** Micro-operations flowing through the out-of-order backend.  One
    uop normally covers one instruction; with macro-op fusion enabled
    it may cover two ([n_insns] = 2). *)

open Riscv

type fusion =
  | Fused_lui_addi of int64 (** the resulting constant *)
  | Fused_zext_w
  | Fused_sh_add of int (** the shift amount, 1..3 *)

(** Where the uop executes: in an issue queue, at the ROB head
    (system instructions, atomics, MMIO), or nowhere (eliminated
    moves). *)
type where = In_iq | At_commit | Eliminated

type state = Waiting | Issued | Completed

type t = {
  seq : int; (** global program-order sequence number *)
  pc : int64;
  insn : Insn.t;
  second : Insn.t option;
  fusion : fusion option;
  n_insns : int;
  pred_next : int64; (** predicted next pc after this uop's insns *)
  exec_class : Config.exec_class;
  where : where;
  mutable arch_rd : int;
  mutable rd_is_fp : bool;
  mutable prd : int;
  mutable old_prd : int;
  mutable psrc : int array;
  mutable psrc_fp : bool array;
  mutable src2 : int;
  mutable state : state;
  mutable done_at : int;
  mutable result : int64;
  mutable next_pc : int64;
  mutable mispredicted : bool;
  mutable exc : (Trap.exc * int64) option;
  mutable priority : bool; (** PUBS high priority *)
  mutable squashed : bool;
  mutable in_iq : bool;
      (** resident in an issue queue; maintained by [Iq] so phase-2
          issue revalidation is O(1) (a boundary fault hook may have
          stolen the slot) *)
  mutable eliminated : bool;
  mutable vaddr : int64;
  mutable paddr : int64;
  mutable msize : int;
  mutable sdata : int64;
  mutable addr_ready : bool;
  mutable mmio : bool;
  mutable load_value : int64;
  mutable mem_cycle : int; (** when the access touched memory *)
  mutable sc_failed : bool;
  mutable csr_read : (int * int64) option;
  mutable committed_store : bool;
}

val uses_lq : Insn.t -> where -> bool
(** Does a uop of this instruction and placement take an LQ entry?
    (Pipelined loads; LR/AMO execute at the head.) *)

val uses_sq : Insn.t -> bool
(** Does it take an SQ entry? *)

val is_load : t -> bool
(** Pipelined loads only (LR/AMO execute at the head). *)

val is_store : t -> bool
(** Stores that go through the SQ/store buffer. *)

val classify : Insn.t -> Config.exec_class * where

val latency : Config.exec_class -> Insn.t -> int
(** Execution latency in cycles (FMA = 5, the paper's cascade FMA). *)

val make :
  seq:int ->
  pc:int64 ->
  insn:Insn.t ->
  second:Insn.t option ->
  fusion:fusion option ->
  pred_next:int64 ->
  t

val sentinel : t
(** The shared filler of free queue and plan-buffer slots (seq [-1]);
    never written.  Structures count their occupancy; nothing compares
    a slot against [sentinel], since a restored LightSSS image holds
    its own copy. *)

(** {1 Age-ordered uop queues}

    The issue queues, the LQ and the SQ are arrays whose first [n]
    slots are live, in age order.  Both functions close gaps in place,
    reset freed slots to [sentinel] and return the new count. *)

val compact : t array -> int -> keep:(t -> bool) -> int
(** Keep the live uops satisfying [keep] ([keep] runs once per live
    slot, oldest first). *)

val remove_seq : t array -> int -> int -> int
(** [remove_seq q n seq] removes the live entry numbered [seq], if
    any. *)
