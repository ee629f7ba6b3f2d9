(** Physical address map and devices (one instance per simulated
    machine):

    {v
    0x0010_0000  SIM device: tohost-style exit + console putchar
    0x0200_0000  CLINT: msip / mtimecmp / mtime
    0x8000_0000  DRAM
    v}

    The CLINT mtime advances under control of the machine driver (per
    retired instruction on the ISS, per clock cycle on the DUT) --
    deliberately different rates, which is exactly the non-determinism
    the time / interrupt diff-rules absorb. *)

val dram_base : int64

val sim_base : int64

val sim_exit_offset : int64
(** Writing [(code << 1) | 1] here stops the machine with [code]. *)

val sim_putchar_offset : int64

val clint_base : int64
val clint_size : int64
val clint_msip_offset : int64
val clint_mtimecmp_offset : int64
val clint_mtime_offset : int64

val max_harts : int

module Clint : sig
  type t = {
    mtime_le : Bytes.t;
        (** mtime, 8 bytes little-endian: the DUT advances it every
            cycle, and an unboxed store allocates nothing *)
    mtimecmp : int64 array;
    msip : bool array;
  }

  val create : unit -> t

  val mtime : t -> int64

  val set_mtime : t -> int64 -> unit

  val copy_mtime : src:t -> dst:t -> unit
  (** [set_mtime dst (mtime src)] without boxing the value. *)

  val tick : t -> int -> unit
  (** Advance mtime by [n]; allocates nothing. *)

  val mtip : t -> int -> bool
  (** Timer interrupt pending for a hart. *)

  val msip : t -> int -> bool

  val read : t -> int64 -> int64
  (** MMIO read at an offset from the CLINT base. *)

  val write : t -> int64 -> int64 -> unit
end

exception Bus_fault of int64

type t = {
  mem : Memory.t;
  clint : Clint.t;
  console : Buffer.t;
  mutable exit_code : int option;
}

val create : ?dram_size:int -> unit -> t

val read : t -> addr:int64 -> size:int -> int64
(** Physical read (DRAM or device). @raise Bus_fault when unmapped. *)

val write : t -> addr:int64 -> size:int -> int64 -> unit

val is_mmio : t -> int64 -> bool

val exited : t -> bool

val exit_code : t -> int option

val console_output : t -> string
