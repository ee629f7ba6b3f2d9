(* Sv39 page-table entry and virtual-address field helpers, shared by
   the reference model's walker, the DUT's hardware page-table walker,
   and the micro-kernel workload that builds page tables. *)

let page_shift = 12

let page_size = 1 lsl page_shift

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

let user pte = flag pte u

let accessed pte = flag pte a

let dirty pte = flag pte d

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

let page_offset va = Int64.to_int (Int64.logand va 0xFFFL)

(* Sv39 requires va bits 63..39 to equal bit 38. *)
let va_canonical va =
  let top = Int64.shift_right va 38 in
  top = 0L || top = -1L

let satp_mode satp = Csr.get_field satp 60 4

let satp_ppn satp = Int64.logand satp 0xFFFFFFFFFFFL

let satp_asid satp = Csr.get_field satp 44 16

let root_of_satp satp = pa_of_ppn (satp_ppn satp)

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

let make_satp ~mode ~asid ~root_pa =
  Int64.logor
    (Int64.shift_left (Int64.of_int mode) 60)
    (Int64.logor
       (Int64.shift_left (Int64.of_int asid) 44)
       (Int64.shift_right_logical root_pa page_shift))
