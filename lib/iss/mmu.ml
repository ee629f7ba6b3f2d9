(* Sv39 address translation for the reference model.

   The REF walks the page table directly in physical memory at the
   instant an access executes.  The DUT instead walks through its cache
   hierarchy with TLB caching, which is the source of the speculative
   page-fault non-determinism handled by the diff-rules (Figure 3).
   Both run the one walk, [Riscv.Pte.walk]. *)

open Riscv

let translate (plat : Platform.t) (csr : Csr.t) va (access : Pte.access) =
  if not (Pte.translation_active csr) then va
  else begin
    let mem = plat.Platform.mem in
    let leaf = Pte.walk Memory.read_u64 mem mem ~satp:csr.Csr.reg_satp va in
    if
      leaf = Pte.walk_fault
      || not (Pte.leaf_permits csr ~flags:(Pte.leaf_flags leaf) access)
    then raise (Trap.Exception (Pte.page_fault access, va));
    Pte.leaf_pa leaf va
  end
