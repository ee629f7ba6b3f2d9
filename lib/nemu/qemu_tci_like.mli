(** Baseline engine modelled on QEMU's TCI (tiny code interpreter)
    mode: guest basic blocks are translated once into a linear
    bytecode of TCG-granularity micro-ops (an ALU instruction becomes
    a load-operands / execute / store-result triple), cached by block
    start address, and executed by a second-level dispatch loop that
    re-extracts operands from the bytecode cells -- the double
    dispatch that makes TCI slower than a direct threaded interpreter
    (paper §III-D2).  Blocks are dropped when the machine's
    {!Mach.field-code_epoch} moves. *)

val name : string

type block

type t = {
  blocks : (int64, block) Hashtbl.t;
  mutable epoch : int;  (** the code epoch the blocks were translated in *)
  mutable translated_blocks : int;
}

val create : unit -> t

val translate : Mach.t -> int64 -> block

val exec_block : Mach.t -> block -> int
(** Executes one block; returns guest instructions retired. *)

val run : Mach.t -> max_insns:int -> int
