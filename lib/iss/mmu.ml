(* Sv39 address translation for the reference model.

   The REF walks the page table directly in physical memory at the
   instant an access executes.  The DUT instead walks through its cache
   hierarchy with TLB caching, which is the source of the speculative
   page-fault non-determinism handled by the diff-rules (Figure 3). *)

open Riscv

(* M-mode bypasses translation (we do not model MPRV). *)
let translation_active (csr : Csr.t) =
  csr.Csr.priv <> Csr.M && Pte.satp_mode csr.Csr.reg_satp = 8

(* Walk the page table; returns the physical address.
   Raises Trap.Exception on a page fault. *)
let walk (plat : Platform.t) (csr : Csr.t) (va : int64) (access : Pte.access)
    : int64 =
  let fault () = raise (Trap.Exception (Pte.page_fault access, va)) in
  if not (Pte.va_canonical va) then fault ();
  let rec step level table_pa =
    if level < 0 then fault ();
    let pte_pa =
      Int64.add table_pa (Int64.of_int (8 * Pte.vpn va level))
    in
    if not (Memory.in_range plat.Platform.mem pte_pa) then fault ();
    let pte = Memory.read_u64 plat.Platform.mem pte_pa in
    if not (Pte.valid pte) then fault ();
    if (not (Pte.readable pte)) && Pte.writable pte then fault ();
    if Pte.is_leaf pte then begin
      if not (Pte.leaf_permits csr ~flags:(Int64.to_int pte land 0xFF) access)
      then fault ();
      (* A/D bits are neither hardware-updated nor required in this
         model (software sets them when installing a page); a hardware
         A/D update would make REF and DUT write PTE memory at
         different times and turn PTE loads into spurious DiffTest
         mismatches. *)
      (* superpage alignment *)
      let ppn = Pte.ppn pte in
      if level > 0 then begin
        let align_mask = Int64.of_int ((1 lsl (9 * level)) - 1) in
        if Int64.logand ppn align_mask <> 0L then fault ()
      end;
      let offset_bits = Pte.page_shift + (9 * level) in
      let offset_mask = Int64.sub (Int64.shift_left 1L offset_bits) 1L in
      Int64.logor
        (Int64.logand (Pte.pa_of_ppn ppn) (Int64.lognot offset_mask))
        (Int64.logand va offset_mask)
    end
    else step (level - 1) (Pte.pa_of_ppn (Pte.ppn pte))
  in
  step (Pte.levels - 1) (Pte.root_of_satp csr.Csr.reg_satp)

let translate plat csr va access =
  if translation_active csr then walk plat csr va access else va
