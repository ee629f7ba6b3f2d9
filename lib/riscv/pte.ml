(* Sv39 page-table entries and the one Sv39 walk, shared by the
   reference models, the DUT's hardware page-table walker, and the
   micro-kernel workloads that build page tables. *)

let page_shift = 12

let levels = 3

(* PTE permission bits *)
let v = 0
let r = 1
let w = 2
let x = 3
let u = 4
let g = 5
let a = 6
let d = 7

let flag pte bitpos = Int64.logand (Int64.shift_right_logical pte bitpos) 1L = 1L

let valid pte = flag pte v

let readable pte = flag pte r

let writable pte = flag pte w

let executable pte = flag pte x

let is_leaf pte = readable pte || writable pte || executable pte

let ppn pte =
  Int64.logand (Int64.shift_right_logical pte 10) 0xFFFFFFFFFFFL

let pa_of_ppn p = Int64.shift_left p page_shift

(* Make a PTE from a physical address and a flag list. *)
let make ~pa flags =
  let base = Int64.shift_left (Int64.shift_right_logical pa page_shift) 10 in
  List.fold_left (fun acc f -> Int64.logor acc (Int64.shift_left 1L f)) base flags

let vpn va level =
  Int64.to_int
    (Int64.logand
       (Int64.shift_right_logical va (page_shift + (9 * level)))
       0x1FFL)

(* Sv39 requires va bits 63..39 to equal bit 38. *)
let va_canonical va =
  let top = Int64.shift_right va 38 in
  top = 0L || top = -1L

let satp_mode satp = Csr.get_field satp 60 4

let satp_ppn satp = Int64.logand satp 0xFFFFFFFFFFFL

let root_of_satp satp = pa_of_ppn (satp_ppn satp)

(* Paging applies outside M-mode when satp selects Sv39 (MPRV is not
   modelled). *)
let[@inline] translation_active (csr : Csr.t) =
  csr.Csr.priv <> Csr.M && satp_mode csr.Csr.reg_satp = 8

(* --- the access rules both walkers apply --------------------------------- *)

type access = Fetch | Load | Store

let page_fault = function
  | Fetch -> Trap.Fetch_page_fault
  | Load -> Trap.Load_page_fault
  | Store -> Trap.Store_page_fault

(* A leaf's [flags] (its low eight bits) permit [access] at the current
   privilege: X to fetch, R (or X under MXR) to load, W to store; U-mode
   needs U, and S-mode may touch a U page only for data with SUM set. *)
let[@inline] has flags bit = flags land (1 lsl bit) <> 0

let leaf_permits (csr : Csr.t) ~flags access =
  let type_ok =
    match access with
    | Fetch -> has flags x
    | Load ->
        has flags r || (Csr.get_bit csr.Csr.reg_mstatus Csr.st_mxr && has flags x)
    | Store -> has flags w
  in
  type_ok
  &&
  match csr.Csr.priv with
  | Csr.U -> has flags u
  | Csr.S ->
      (not (has flags u))
      || (Csr.get_bit csr.Csr.reg_mstatus Csr.st_sum && access <> Fetch)
  | Csr.M -> true

(* --- the Sv39 walk --------------------------------------------------- *)

(* A walk's outcome in one int, so a walk returns no block: the leaf's
   4 KiB-level ppn above its eight flag bits, or [walk_fault]. *)
let walk_fault = -1

let[@inline] leaf_ppn leaf = leaf lsr 8

let[@inline] leaf_flags leaf = leaf land 0xFF

let[@inline] leaf_pa leaf va =
  Int64.logor
    (Int64.shift_left (Int64.of_int (leaf_ppn leaf)) page_shift)
    (Int64.logand va 0xFFFL)

(* One level: the PTE for [va] in the table at physical address
   [table].  A PTE outside [mem] (DRAM), an invalid PTE, the reserved
   W-without-R encoding, a pointer below level 0 and a misaligned
   superpage all fault.  A superpage leaf yields the 4 KiB page inside
   it that holds [va].  A/D bits are neither hardware-updated nor
   required (software sets them when installing a page): a hardware
   update would make the REF and the DUT write PTE memory at different
   times and turn PTE loads into spurious DiffTest mismatches. *)
let rec walk_level read src mem va level table =
  let pte_pa = Int64.of_int (table + (8 * vpn va level)) in
  if not (Memory.in_range mem pte_pa) then walk_fault
  else begin
    let pte = read src pte_pa in
    if (not (valid pte)) || ((not (readable pte)) && writable pte) then
      walk_fault
    else if is_leaf pte then begin
      let ppn = Int64.to_int (ppn pte) in
      let below = (1 lsl (9 * level)) - 1 in
      if ppn land below <> 0 then walk_fault
      else
        let va_ppn = Int64.to_int (Int64.shift_right_logical va page_shift) in
        ((ppn lor (va_ppn land below)) lsl 8) lor (Int64.to_int pte land 0xFF)
    end
    else if level = 0 then walk_fault
    else
      walk_level read src mem va (level - 1)
        (Int64.to_int (pa_of_ppn (ppn pte)))
  end

let walk read src mem ~satp va =
  if not (va_canonical va) then walk_fault
  else
    walk_level read src mem va (levels - 1)
      (Int64.to_int (root_of_satp satp))

let make_satp ~mode ~asid ~root_pa =
  Int64.logor
    (Int64.shift_left (Int64.of_int mode) 60)
    (Int64.logor
       (Int64.shift_left (Int64.of_int asid) 44)
       (Int64.shift_right_logical root_pa page_shift))
