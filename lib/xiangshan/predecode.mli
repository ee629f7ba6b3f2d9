(** Predecoded static instructions: everything about an instruction
    that does not depend on the run, built once per distinct 32-bit
    word and shared by every fetch of it.

    Fetch looks words up in one process-wide, bounded, direct-mapped
    memo ({!lookup}); dispatch and issue read the record's fields
    instead of re-deriving them.  Decoding is a pure function of the
    word, so an entry is never stale (fence.i, sfence.vma,
    self-modifying code and LightSSS restores need no invalidation).
    No SoC reaches the memo, so snapshots and marshalled state never
    carry it; a restored image holds its own copies of the records its
    uops reference, so records must never be compared with [==]. *)

open Riscv

(** Where the uop executes: in an issue queue, or at the ROB head
    (system instructions and atomics; an MMIO load is found at issue
    and also finishes there).  Eliminated moves are decided at
    dispatch, per uop. *)
type where = In_iq | At_commit

type t = private {
  word : int;  (** the encoding; [-1] for a record built by {!of_insn} *)
  insn : Insn.t;
  exec_class : Config.exec_class;
  where : where;
  uses_lq : bool;  (** takes an LQ entry (pipelined loads) *)
  uses_sq : bool;  (** takes an SQ entry (stores) *)
  rd : int;
      (** destination register, [-1] for none (an [x0] write needs no
          register) *)
  rd_is_fp : bool;
  srcs : int array;
      (** architectural sources in rename order, integer ones first
          ([Insn.srcs]); shared, never written *)
  src_fp : bool array;
      (** which of [srcs] are FP registers; shared, never written *)
  latency : int;
      (** execution latency in cycles (FMA = 5, the paper's cascade
          FMA; loads add their memory latency) *)
}

val lookup : int -> t
(** The record of the low 32 bits of a word, from the memo; decodes
    only on a miss. *)

val of_insn : Insn.t -> t
(** A record for an instruction that was not fetched (tests, the
    interrupt pseudo-uop); not memoised. *)

val none : t
(** The record of [Illegal 0]: faulting fetches and free slots. *)

val int_srcs : bool array
(** Three integer source kinds, for uops whose sources are not their
    record's (fused pairs); shared, never written. *)

val slot : int -> int
(** The memo slot of a (32-bit) word; words with equal slots evict
    each other. *)
