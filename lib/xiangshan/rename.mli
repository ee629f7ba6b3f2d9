(** Register renaming: separate integer and FP physical register
    files with free lists, plus reference-counted move elimination for
    the integer file (Table II NH feature).

    The physical register files also hold the speculative values and
    their ready cycles: the execute-at-issue model computes results
    straight into the physical file, and consumers become ready when
    [ready_at] passes. *)

type rf = {
  map : int array; (** architectural -> physical *)
  free : int array;
      (** the free list, FIFO: a ring of [pregs] slots holding
          [free_n] registers from [free_head] *)
  mutable free_head : int;
  mutable free_n : int;
  value : int64 array;
  ready_at : int array;
  refcnt : int array; (** move elimination shares physical registers *)
}

type t = { int_rf : rf; fp_rf : rf; cfg : Config.t }

val create : Config.t -> t

val lookup : t -> is_fp:bool -> int -> int

val can_alloc : t -> is_fp:bool -> bool

val alloc : t -> is_fp:bool -> arch:int -> now:int -> int * int
(** New destination mapping; returns (prd, old_prd).  The old mapping
    is released at commit or restored on rollback. *)

val alias : t -> arch_rd:int -> arch_rs:int -> int * int
(** Move elimination: map [arch_rd] to [arch_rs]'s physical register,
    bumping its reference count; returns (prd, old_prd). *)

val corrupt_alias : t -> arch_rd:int -> arch_rs:int -> unit
(** Fault injection: silently remap [arch_rd] onto [arch_rs]'s
    physical register (a mis-fired move elimination); the next
    consumer of [arch_rd] reads the wrong value. *)

val commit_release : t -> is_fp:bool -> old_prd:int -> unit

val rollback : t -> Uop.t -> unit
(** Undo a squashed uop's mapping (call youngest-first). *)

val set_result : t -> is_fp:bool -> prd:int -> value:int64 -> ready_at:int -> unit

val value : t -> is_fp:bool -> prd:int -> int64

val ready : t -> is_fp:bool -> prd:int -> now:int -> bool

val srcs_ready : t -> Uop.t -> now:int -> bool

val free_count : t -> is_fp:bool -> int
