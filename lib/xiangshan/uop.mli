(** Micro-operations flowing through the out-of-order backend,
    resident in the ROB.  One uop normally covers one instruction;
    with macro-op fusion enabled it may cover two ({!n_insns} = 2).

    A core's uops live in one {!t}, a row per ROB slot.  Dispatch
    re-initialises the row of the new uop in place ({!init}), so
    dispatching allocates nothing.  A row's int fields are adjacent in
    [ints] ([ints_per_row] per row, at the [i_*] offsets), its 64-bit
    fields adjacent and unboxed in [words] ([words_per_row] per row, at
    the [w_*] offsets), so no row points at a boxed value.  Modules
    that compute on the fields index these arrays themselves, as
    {!get}, {!set}, {!get64} and {!set64} do, so the values stay
    unboxed and no call is paid per field.

    Uop [seq] lives in row [seq land mask]: the row count is a power
    of two of at least the ROB capacity, so live uops never share a
    row.  Queue entries and plan buffers name a uop by its [seq]; the
    row is reused once the uop retired or was squashed, so before
    acting on an entry its holder checks that the row still holds that
    [seq] ({!holds}, {!live}).  The seq of a squashed uop is
    reallocated from the new ROB tail, which the check cannot tell
    apart, so a flush drops every entry naming a squashed uop; the seq
    of a retired uop is never reallocated. *)

open Riscv

type fusion =
  | Fused_lui_addi of int64 (** the resulting constant *)
  | Fused_zext_w
  | Fused_sh_add of int (** the shift amount, 1..3 *)

(** {1 Row layout} *)

val i_seq : int
(** the uop the row holds (its generation); -1 before first use *)

val i_state : int
(** {!waiting}, {!issued} or {!completed} *)

val i_flags : int
(** the [b_*] bits *)

val i_n_src : int
(** register sources, at most three *)

val i_ps0 : int
val i_ps1 : int
val i_ps2 : int
(** the sources ({!psrc}): architectural numbers from {!init},
    renamed to physical ones in place at dispatch *)

val i_prd : int
(** -1 = none *)

val i_old_prd : int
val i_done_at : int

val i_fusion : int
(** {!no_fusion}, {!lui_addi}, {!zext_w} or {!sh_add} *)

val i_msize : int

val i_mem_cycle : int
(** when the access touched memory *)

val i_csr_addr : int
(** the CSR an at-commit CSR instruction read (its old value is
    [w_result]); -1 = none *)

val ints_per_row : int
(** 16: row [r]'s field [f] is [ints.((r lsl 4) lor f)] *)

val w_pc : int

val w_pred_next : int
(** predicted next pc after this uop's insns *)

val w_next_pc : int
val w_result : int
val w_vaddr : int
val w_paddr : int
val w_sdata : int
val w_load_value : int

val words_per_row : int
(** 8: row [r]'s field [f] is the 64-bit value at byte
    [(r lsl 6) lor (f lsl 3)] of [words] *)

val waiting : int
val issued : int
val completed : int

val b_faulted : int
(** an exception is recorded ({!set_exc}) *)

val b_mispredicted : int

val b_priority : int
(** PUBS high priority *)

val b_squashed : int

val b_in_iq : int
(** resident in an issue queue; maintained by [Iq] so phase-2 issue
    revalidation is O(1) (a boundary fault hook may have stolen the
    slot) *)

val b_eliminated : int
val b_addr_ready : int
val b_mmio : int
val b_sc_failed : int

val no_fusion : int
val lui_addi : int
val zext_w : int
val sh_add : int
(** [i_fusion] tags; {!imm} holds the constant of [lui_addi] and the
    shift amount of [sh_add]. *)

type t = {
  mask : int;  (** rows - 1 *)
  ints : int array;
  words : Bytes.t;
  si : Predecode.t array;
      (** the static record of the (first) instruction: class,
          placement, destination, latency *)
  second : Predecode.t array;
      (** the fusion partner's record; [Predecode.none] otherwise *)
  exc : Trap.exc array;  (** the exception, with [b_faulted] *)
  tval : Bytes.t;  (** the exception's tval, 8 bytes per row *)
  imm : Bytes.t;  (** the fusion payload, 8 bytes per row *)
}

val create : cap:int -> t
(** Rows for a ROB of [cap] entries, all unused. *)

(** {1 Access} *)

val row : t -> int -> int
(** [row t seq]: the row of uop [seq]. *)

val holds : t -> int -> bool
(** [holds t seq]: the row of [seq] still holds that uop. *)

val live : t -> int -> bool
(** [holds] and not squashed. *)

val get : t -> int -> int -> int
(** [get t r f]: int field [f] of row [r]. *)

val set : t -> int -> int -> int -> unit

val flag : t -> int -> int -> bool
(** [flag t r b]: flag bit [b] of row [r]. *)

val set_flag : t -> int -> int -> bool -> unit

val get64 : t -> int -> int -> int64
(** [get64 t r f]: 64-bit field [f] of row [r]. *)

val set64 : t -> int -> int -> int64 -> unit

val tval : t -> int -> int64

val imm : t -> int -> int64

val insn : t -> int -> Insn.t
(** The row's (first) instruction, [si.insn]. *)

val is_load : t -> int -> bool
(** Takes an LQ entry: pipelined loads only (LR/AMO execute at the
    head). *)

val is_store : t -> int -> bool
(** Takes an SQ entry: stores that go through the store buffer. *)

val n_insns : t -> int -> int

val arch_src : t -> int -> int -> int
(** [arch_src t r i], [0 <= i < n_src]: the [i]th architectural
    source.  A fused pair reads the pair's external sources (and
    writes its first instruction's destination); any other uop reads
    [si.srcs]. *)

val src_fp : t -> int -> int -> bool
(** Whether source [i] is an FP register (a fused pair's never are). *)

val psrc : t -> int -> int -> int
(** [psrc t r i], [0 <= i < n_src]: source field [i]. *)

val set_psrc : t -> int -> int -> int -> unit

val set_exc : t -> int -> Trap.exc -> int64 -> unit
(** Record an exception (cause and tval) on the row. *)

val init :
  t ->
  seq:int ->
  pc:int64 ->
  si:Predecode.t ->
  second:Predecode.t ->
  fusion:fusion option ->
  pred_next:int64 ->
  unit
(** Re-initialise the row of [seq] as a waiting uop whose sources hold
    their architectural numbers.  [second] is the fusion partner's
    record (ignored without fusion).  Fields that a stage writes before
    any reads them (the access, the exception) are left as they are. *)

val release : t -> int -> unit
(** Drop the row's pointers once its uop retired or was squashed, so a
    LightSSS image carries the records of in-flight uops only. *)

(** {1 Age-ordered uop queues}

    The issue queues, the LQ and the SQ are int arrays of sequence
    numbers whose first [n] slots are live, in age order; free slots
    hold -1.  Both functions close gaps in place, keeping age order,
    reset the freed slots to -1 and return the new count. *)

val drop_squashed : t -> int array -> int -> int
(** [drop_squashed t q n]: remove the entries whose uops were squashed
    (clearing their [b_in_iq]).  An entry whose row was reused names a
    uop that retired while still queued (only a store to MMIO does);
    it is kept. *)

val remove_seq : int array -> int -> int -> int
(** [remove_seq q n seq] removes the live entry [seq], if any. *)
