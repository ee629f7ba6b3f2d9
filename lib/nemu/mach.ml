(* Lightweight machine state shared by all interpreter engines
   (NEMU and the Spike / QEMU-TCI / Dromajo baselines).

   The integer register file has 33 slots: slot 32 is an unused sink
   variable.  NEMU's decoder redirects writes whose destination is x0
   to slot 32 so that execution routines never need an `if rd <> 0`
   check (paper §III-D1b); the baseline engines use the same register
   file but perform the traditional check.

   The register files are Bigarrays rather than [int64 array]: an
   unboxed int64 store into a Bigarray is a plain 8-byte write,
   whereas an [int64 array] element is a boxed pointer, so every
   register write would allocate a fresh box and run the GC write
   barrier -- the single largest cost in the interpreter hot loop.

   [Mach] also hosts the engines' *host TLB*: three direct-mapped
   VPN -> physical-page-base caches (fetch/load/store) consulted by
   [Exec_generic] before falling back to the full [Iss.Mmu.translate]
   Sv39 walk.  Only DRAM-backed translations are cached; a naturally
   aligned access of <= 8 bytes never crosses a 4 KiB page, so
   page-base + offset is always valid.  The TLB -- together with the
   cached [paging] flag -- is invalidated on every event that can
   change translations: trap entry/return (privilege change),
   sfence.vma, and CSR writes to satp/mstatus/sstatus.  Engines must
   therefore enter traps via {!take_trap}/{!take_irq} rather than
   calling [Trap.take_exception] directly. *)

open Riscv

type regfile =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  regs : regfile; (* 33 entries; [32] is the x0 write sink *)
  fregs : regfile;
  mutable pc : int64;
  csr : Csr.t;
  plat : Platform.t;
  mutable reservation : int64 option;
  mutable instret : int;
  mutable running : bool;
  (* host TLB + cached translation-active flag *)
  mutable paging : bool;
  mutable tlb_off : int; (* active privilege's region: 0 = U, 3 x size = S *)
  tlb_tags : int64 array; (* 2 privs x 3 kinds x tlb_size; -1 = invalid *)
  tlb_base : int64 array; (* physical page base *)
}

let sink = 32

let tlb_bits = 9

let tlb_size = 1 lsl tlb_bits

(* kind indices into the TLB arrays *)
let tlb_fetch = 0
let tlb_load = 1
let tlb_store = 2

let tlb_flush t =
  Array.fill t.tlb_tags 0 (Array.length t.tlb_tags) (-1L)

let create ?(dram_size = 64 * 1024 * 1024) ?(hartid = 0) () =
  let plat = Platform.create ~dram_size () in
  let csr = Csr.create ~hartid in
  csr.Csr.time_source <-
    (fun () -> Platform.Clint.mtime plat.Platform.clint);
  let regs = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 33 in
  let fregs = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 32 in
  Bigarray.Array1.fill regs 0L;
  Bigarray.Array1.fill fregs 0L;
  {
    regs;
    fregs;
    pc = Platform.dram_base;
    csr;
    plat;
    reservation = None;
    instret = 0;
    running = true;
    paging = false;
    tlb_off = 0;
    tlb_tags = Array.make (2 * 3 * tlb_size) (-1L);
    tlb_base = Array.make (2 * 3 * tlb_size) 0L;
  }

let load_program t (p : Asm.program) =
  Asm.load p t.plat.Platform.mem;
  t.pc <- p.Asm.entry

let get_reg t r = if r = 0 then 0L else Bigarray.Array1.get t.regs r

let set_reg t r v = if r <> 0 then Bigarray.Array1.set t.regs r v

let exited t = Platform.exited t.plat

let exit_code t = Platform.exit_code t.plat

let paging_on t =
  Pte.satp_mode t.csr.Csr.reg_satp = 8 && t.csr.Csr.priv <> Csr.M

(* The TLB is partitioned by privilege (permissions differ: PTE.U
   pages are U-only without SUM), so a plain privilege switch only has
   to retarget the active region -- no flush.  M-mode never consults
   the TLB ([paging] is false there; MPRV is not modelled). *)
let[@inline] sync_priv t =
  t.paging <- paging_on t;
  t.tlb_off <- (if t.csr.Csr.priv = Csr.S then 3 * tlb_size else 0)

(* Recompute the cached translation context and drop the host TLB
   after any event that can remap pages or change access permissions
   (satp writes, sfence.vma, mstatus/sstatus writes: SUM/MXR). *)
let sync_translation t =
  tlb_flush t;
  sync_priv t

(* [tlb_lookup] returns the physical address, or [Int64.min_int] on a
   miss (a physical address can never be negative). *)
let[@inline] tlb_lookup t kind va =
  let vpn = Int64.shift_right_logical va 12 in
  let idx =
    t.tlb_off + (kind lsl tlb_bits) + (Int64.to_int vpn land (tlb_size - 1))
  in
  if Int64.equal (Array.unsafe_get t.tlb_tags idx) vpn then
    Int64.logor (Array.unsafe_get t.tlb_base idx) (Int64.logand va 0xFFFL)
  else Int64.min_int

let[@inline] tlb_fill t kind va pa =
  let vpn = Int64.shift_right_logical va 12 in
  let idx =
    t.tlb_off + (kind lsl tlb_bits) + (Int64.to_int vpn land (tlb_size - 1))
  in
  Array.unsafe_set t.tlb_tags idx vpn;
  Array.unsafe_set t.tlb_base idx (Int64.logand pa (Int64.lognot 0xFFFL))

let translate t va (access : Iss.Mmu.access) =
  if t.paging then Iss.Mmu.translate t.plat t.csr va access else va

let take_trap t exc tval ~epc =
  t.pc <- Trap.take_exception t.csr exc tval ~epc;
  sync_priv t

let take_irq t irq =
  t.pc <- Trap.take_interrupt t.csr irq ~epc:t.pc;
  sync_priv t

let check_running t = if Platform.exited t.plat then t.running <- false

let arch_state_digest t =
  (* for checkpoint tests: (pc, xregs, fregs) *)
  ( t.pc,
    Array.init 32 (fun i -> Bigarray.Array1.get t.regs i),
    Array.init 32 (fun i -> Bigarray.Array1.get t.fregs i) )
