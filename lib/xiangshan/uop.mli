(** Micro-operations flowing through the out-of-order backend.  One
    uop normally covers one instruction; with macro-op fusion enabled
    it may cover two ([n_insns] = 2). *)

open Riscv

type fusion =
  | Fused_lui_addi of int64 (** the resulting constant *)
  | Fused_zext_w
  | Fused_sh_add of int (** the shift amount, 1..3 *)

type state = Waiting | Issued | Completed

type t = {
  seq : int; (** global program-order sequence number *)
  pc : int64;
  si : Predecode.t;
      (** the static record of the (first) instruction: class,
          placement, destination, latency *)
  second : Insn.t option;
  fusion : fusion option;
  n_insns : int;
  pred_next : int64; (** predicted next pc after this uop's insns *)
  n_src : int;  (** register sources, at most three *)
  mutable ps0 : int;
  mutable ps1 : int;
  mutable ps2 : int;
      (** the sources ({!psrc}): architectural numbers from {!make},
          renamed to physical ones in place at dispatch *)
  src_fp : bool array;
      (** which sources are FP registers; shared, never written *)
  mutable prd : int;
  mutable old_prd : int;
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
}

val insn : t -> Insn.t
(** The (first) instruction, [si.insn]. *)

val is_load : t -> bool
(** Takes an LQ entry: pipelined loads only (LR/AMO execute at the
    head). *)

val is_store : t -> bool
(** Takes an SQ entry: stores that go through the store buffer. *)

val arch_src : t -> int -> int
(** [arch_src u i], [0 <= i < n_src]: the [i]th architectural source.
    A fused pair reads the pair's external sources (and writes its
    first instruction's destination); any other uop reads
    [si.srcs]. *)

val psrc : t -> int -> int
(** [psrc u i], [0 <= i < n_src]: source field [i]. *)

val set_psrc : t -> int -> int -> unit

val make :
  seq:int ->
  pc:int64 ->
  si:Predecode.t ->
  second:Insn.t option ->
  fusion:fusion option ->
  pred_next:int64 ->
  t
(** A waiting uop whose sources hold their architectural numbers. *)

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
