(** Baseline engine modelled on Spike: a direct-mapped software decode
    cache indexed by pc (different addresses conflict and force
    re-decode, unlike NEMU's trace-organised cache), generic dispatch
    on the decoded AST, and SoftFloat arithmetic -- which is why this
    engine, like Spike, is much slower on FP-heavy workloads
    (paper §III-D2).  The cache is emptied when the machine's
    {!Mach.field-code_epoch} moves. *)

val name : string

type t = {
  tags : int64 array;
  insns : Riscv.Insn.t array;
  size : int;
  mutable epoch : int;  (** the code epoch the cache was filled in *)
  mutable hits : int;
  mutable misses : int;
}

val create : ?size:int -> unit -> t
(** [size] defaults to 16384, the best-performing size the paper
    selects after sweeping 1024..32768. *)

val step : t -> Mach.t -> unit

val run : ?size:int -> Mach.t -> max_insns:int -> int
