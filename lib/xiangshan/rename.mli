(** Register renaming: separate integer and FP physical register
    files with free lists, plus reference-counted move elimination for
    the integer file (Table II NH feature).

    The physical register files also hold the speculative values and
    their ready cycles: the execute-at-issue model computes results
    straight into the physical file, and consumers become ready when
    the value's ready cycle passes ({!ready}).  Values are an unboxed
    column, so writing a result allocates nothing; {!reg_value} and
    {!set_result} are inlined at their call sites, so neither boxes
    the value. *)

type t

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

val rollback : t -> Uop.t -> int -> unit
(** [rollback t uops r]: undo the mapping of the squashed uop in row
    [r] (call youngest-first). *)

val reg_value : t -> is_fp:bool -> int -> int64
(** [reg_value t ~is_fp p]: the value of physical register [p]. *)

val set_result : t -> is_fp:bool -> prd:int -> value:int64 -> ready_at:int -> unit

val ready : t -> is_fp:bool -> prd:int -> now:int -> bool

val srcs_ready : t -> Uop.t -> int -> now:int -> bool
(** [srcs_ready t uops r ~now]: every source of the uop in row [r] is
    available at [now]. *)

val free_count : t -> is_fp:bool -> int
