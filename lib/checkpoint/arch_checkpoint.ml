(* RISC-V architectural checkpoints (paper §III-D3, Figure 9).

   A checkpoint captures the architectural state -- pc, integer and FP
   registers, the relevant CSRs -- and the physical memory image, using
   only basic RV64 state (independent of the debug-mode extension, as
   the paper emphasises).  Checkpoints are generated at speed by NEMU
   and restored into RTL-simulation (our cycle-level XiangShan model)
   for sampled performance evaluation.

   Memory is stored as the sparse list of allocated pages, so
   checkpoint size is proportional to the touched footprint. *)

open Riscv

type t = {
  ck_pc : int64;
  ck_regs : int64 array; (* x1..x31 stored from index 1 *)
  ck_fregs : int64 array;
  ck_priv : Csr.priv;
  ck_csrs : (int * int64) list; (* (address, value) for restorable CSRs *)
  ck_pages : (int * Bytes.t) list; (* (page index, data) *)
  ck_page_bits : int;
  ck_mem_base : int64;
  ck_mem_size : int;
  ck_instret : int64; (* position in the program, in instructions *)
}

let restorable_csrs =
  Csr.
    [
      mstatus; medeleg; mideleg; mie; mtvec; mscratch; mepc; mcause; mtval;
      stvec; sscratch; sepc; scause; stval; satp; fcsr;
    ]

let capture_memory (mem : Memory.t) =
  let pages = ref [] in
  Memory.iter_pages mem (fun i data -> pages := (i, Bytes.copy data) :: !pages);
  List.rev !pages

(* Page [i] of the checkpoint is page [i] of a memory with the same
   base and page size, so each one is blitted whole into its page. *)
let restore_memory (t : t) (mem : Memory.t) =
  assert (mem.Memory.page_bits = t.ck_page_bits);
  assert (Int64.equal (Memory.base mem) t.ck_mem_base);
  List.iter
    (fun (i, data) ->
      Bytes.blit data 0 (Memory.write_page mem i) 0 (Bytes.length data))
    t.ck_pages

(* --- capture from a NEMU machine ------------------------------------- *)

let capture_mach (m : Nemu.Mach.t) : t =
  let csr = m.Nemu.Mach.csr in
  let mem = m.Nemu.Mach.plat.Platform.mem in
  {
    ck_pc = m.Nemu.Mach.pc;
    ck_regs = Array.init 32 (fun i -> Bigarray.Array1.get m.Nemu.Mach.regs i);
    ck_fregs = Array.init 32 (fun i -> Bigarray.Array1.get m.Nemu.Mach.fregs i);
    ck_priv = csr.Csr.priv;
    ck_csrs =
      List.map
        (fun a ->
          ( a,
            (* fcsr is readable everywhere; others need M, which NEMU
               machines always have when capturing *)
            try Csr.read csr a with Csr.Illegal_csr _ -> 0L ))
        restorable_csrs;
    ck_pages = capture_memory mem;
    ck_page_bits = mem.Memory.page_bits;
    ck_mem_base = mem.Memory.base;
    ck_mem_size = Memory.size mem;
    ck_instret = Int64.of_int m.Nemu.Mach.instret;
  }

(* --- restore into an arch state + platform ---------------------------- *)

let restore_arch (t : t) (st : Arch_state.t) (plat : Platform.t) =
  st.Arch_state.pc <- t.ck_pc;
  Array.blit t.ck_regs 0 st.Arch_state.regs 0 32;
  Array.blit t.ck_fregs 0 st.Arch_state.fregs 0 32;
  st.Arch_state.csr.Csr.priv <- t.ck_priv;
  List.iter
    (fun (a, v) -> try Csr.write st.Arch_state.csr a v with Csr.Illegal_csr _ -> ())
    t.ck_csrs;
  restore_memory t plat.Platform.mem

(* Restore into a XiangShan SoC (hart 0) for sampled simulation. *)
let restore_soc (t : t) (soc : Xiangshan.Soc.t) =
  let core = soc.Xiangshan.Soc.cores.(0) in
  restore_arch t core.Xiangshan.Core.arch soc.Xiangshan.Soc.plat;
  Xiangshan.Core.set_boot_pc core t.ck_pc;
  core.Xiangshan.Core.arch.Arch_state.pc <- t.ck_pc;
  Xiangshan.Core.sync_regfile_from_arch core

(* Restore into a fresh reference interpreter (checkpoints are also
   how DiffTest REFs are initialised mid-program). *)
let restore_interp (t : t) (r : Iss.Interp.t) =
  restore_arch t r.Iss.Interp.st r.Iss.Interp.plat

(* --- (de)serialisation ------------------------------------------------ *)

(* Atomic: a kill mid-save leaves the previous checkpoint (or no
   file), never a torn one a later restore would decode garbage from. *)
let save (t : t) ~(path : string) =
  Minjie.Journal.atomic_write_file ~path (Marshal.to_string t [])

let load ~(path : string) : t =
  let ic = open_in_bin path in
  let t : t = Marshal.from_channel ic in
  close_in ic;
  t

let size_bytes (t : t) =
  List.fold_left (fun acc (_, b) -> acc + Bytes.length b) 0 t.ck_pages
