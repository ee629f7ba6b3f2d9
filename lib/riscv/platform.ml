(* Physical address map and devices.

   Layout (one platform instance per simulated machine):

     0x0010_0000  SIM device: tohost-style exit + console putchar
     0x0200_0000  CLINT: msip / mtimecmp / mtime
     0x8000_0000  DRAM

   The CLINT mtime register advances under control of the machine
   driver (per retired instruction on the ISS, per clock cycle on the
   DUT) -- deliberately different rates, which is exactly the
   non-determinism the `time`/interrupt diff-rules absorb. *)

let dram_base = 0x8000_0000L

let sim_base = 0x0010_0000L

let sim_exit_offset = 0x0L

let sim_putchar_offset = 0x8L

let clint_base = 0x0200_0000L

let clint_size = 0x10000L

let clint_msip_offset = 0x0L

let clint_mtimecmp_offset = 0x4000L

let clint_mtime_offset = 0xBFF8L

let max_harts = 8

module Clint = struct
  (* mtime lives in 8 bytes rather than a mutable int64 field: the
     field would box a fresh value on every tick, the bytes take an
     unboxed store *)
  type t = {
    mtime_le : Bytes.t;
    mtimecmp : int64 array;
    msip : bool array;
  }

  let create () =
    {
      mtime_le = Bytes.make 8 '\000';
      mtimecmp = Array.make max_harts Int64.max_int;
      msip = Array.make max_harts false;
    }

  let mtime t = Bytes.get_int64_le t.mtime_le 0

  let set_mtime t v = Bytes.set_int64_le t.mtime_le 0 v

  let copy_mtime ~src ~dst =
    Bytes.set_int64_le dst.mtime_le 0 (Bytes.get_int64_le src.mtime_le 0)

  let tick t n =
    Bytes.set_int64_le t.mtime_le 0
      (Int64.add (Bytes.get_int64_le t.mtime_le 0) (Int64.of_int n))

  let mtip t hart = Bytes.get_int64_le t.mtime_le 0 >= t.mtimecmp.(hart)

  let msip t hart = t.msip.(hart)

  let read t off =
    if off = clint_mtime_offset then mtime t
    else if off >= clint_mtimecmp_offset && off < Int64.add clint_mtimecmp_offset 64L
    then t.mtimecmp.(Int64.to_int (Int64.sub off clint_mtimecmp_offset) / 8)
    else if off >= clint_msip_offset && off < 32L then
      if t.msip.(Int64.to_int off / 4) then 1L else 0L
    else 0L

  let write t off v =
    if off = clint_mtime_offset then set_mtime t v
    else if off >= clint_mtimecmp_offset
            && off < Int64.add clint_mtimecmp_offset 64L then
      t.mtimecmp.(Int64.to_int (Int64.sub off clint_mtimecmp_offset) / 8) <- v
    else if off >= clint_msip_offset && off < 32L then
      t.msip.(Int64.to_int off / 4) <- Int64.logand v 1L = 1L
end

exception Bus_fault of int64

type t = {
  mem : Memory.t;
  clint : Clint.t;
  console : Buffer.t;
  mutable exit_code : int option;
}

let create ?(dram_size = 64 * 1024 * 1024) () =
  {
    mem = Memory.create ~base:dram_base ~size:dram_size ();
    clint = Clint.create ();
    console = Buffer.create 256;
    exit_code = None;
  }

let in_dram t addr = Memory.in_range t.mem addr

let in_clint addr =
  addr >= clint_base && addr < Int64.add clint_base clint_size

let in_sim addr = addr >= sim_base && addr < Int64.add sim_base 0x100L

(* Device reads/writes are 1/2/4/8 bytes; the CLINT treats everything
   as its natural width for simplicity. *)
let read t ~addr ~size : int64 =
  if in_dram t addr then Memory.read_bytes_le t.mem addr size
  else if in_clint addr then Clint.read t.clint (Int64.sub addr clint_base)
  else if in_sim addr then 0L
  else raise (Bus_fault addr)

let write t ~addr ~size (v : int64) : unit =
  if in_dram t addr then Memory.write_bytes_le t.mem addr size v
  else if in_clint addr then Clint.write t.clint (Int64.sub addr clint_base) v
  else if in_sim addr then begin
    let off = Int64.sub addr sim_base in
    if off = sim_exit_offset then begin
      (* HTIF convention: (code << 1) | 1 *)
      if Int64.logand v 1L = 1L && t.exit_code = None then
        t.exit_code <- Some (Int64.to_int (Int64.shift_right_logical v 1))
    end
    else if off = sim_putchar_offset then
      Buffer.add_char t.console (Char.chr (Int64.to_int v land 0xFF))
  end
  else raise (Bus_fault addr)

let exited t = t.exit_code <> None

let exit_code t = t.exit_code

let console_output t = Buffer.contents t.console

let is_mmio t addr = not (in_dram t addr)
