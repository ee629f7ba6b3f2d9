(* Exception and interrupt causes, trap entry and return.

   Shared by the reference model and the DUT so that the architectural
   trap semantics cannot diverge; what *can* diverge (and what the
   diff-rules reconcile) is *when* a trap is taken -- e.g. a DUT page
   fault caused by a speculative TLB walk that the REF never sees. *)

type exc =
  | Fetch_misaligned
  | Fetch_access
  | Illegal_instruction
  | Breakpoint
  | Load_misaligned
  | Load_access
  | Store_misaligned
  | Store_access
  | Ecall_from_u
  | Ecall_from_s
  | Ecall_from_m
  | Fetch_page_fault
  | Load_page_fault
  | Store_page_fault
[@@deriving show { with_path = false }, eq, ord]

let exc_code = function
  | Fetch_misaligned -> 0
  | Fetch_access -> 1
  | Illegal_instruction -> 2
  | Breakpoint -> 3
  | Load_misaligned -> 4
  | Load_access -> 5
  | Store_misaligned -> 6
  | Store_access -> 7
  | Ecall_from_u -> 8
  | Ecall_from_s -> 9
  | Ecall_from_m -> 11
  | Fetch_page_fault -> 12
  | Load_page_fault -> 13
  | Store_page_fault -> 15

let exc_of_code = function
  | 0 -> Fetch_misaligned
  | 1 -> Fetch_access
  | 2 -> Illegal_instruction
  | 3 -> Breakpoint
  | 4 -> Load_misaligned
  | 5 -> Load_access
  | 6 -> Store_misaligned
  | 7 -> Store_access
  | 8 -> Ecall_from_u
  | 9 -> Ecall_from_s
  | 11 -> Ecall_from_m
  | 12 -> Fetch_page_fault
  | 13 -> Load_page_fault
  | 15 -> Store_page_fault
  | c -> invalid_arg (Printf.sprintf "Trap.exc_of_code: %d" c)

let ecall_cause = function
  | Csr.U -> Ecall_from_u
  | Csr.S -> Ecall_from_s
  | Csr.M -> Ecall_from_m

type irq = Ssip | Msip | Stip | Mtip | Seip | Meip
[@@deriving show { with_path = false }, eq, ord]

let irq_code = function
  | Ssip -> 1
  | Msip -> 3
  | Stip -> 5
  | Mtip -> 7
  | Seip -> 9
  | Meip -> 11

let irq_of_code = function
  | 1 -> Ssip
  | 3 -> Msip
  | 5 -> Stip
  | 7 -> Mtip
  | 9 -> Seip
  | 11 -> Meip
  | c -> invalid_arg (Printf.sprintf "Trap.irq_of_code: %d" c)

(* Raised by interpreters while executing an instruction; caught by the
   step function which then performs trap entry. *)
exception Exception of exc * int64 (* cause, tval *)

let interrupt_bit = Int64.shift_left 1L 63

(* Which pending-and-enabled interrupt should be taken, if any.
   Priority: MEI > MSI > MTI > SEI > SSI > STI. *)
let pending_interrupt (csr : Csr.t) : irq option =
  let pend = Int64.logand csr.reg_mip csr.reg_mie in
  if pend = 0L then None
  else begin
    let m_enabled =
      match csr.priv with
      | Csr.M -> Csr.get_bit csr.reg_mstatus Csr.st_mie
      | Csr.S | Csr.U -> true
    in
    let s_enabled =
      match csr.priv with
      | Csr.M -> false
      | Csr.S -> Csr.get_bit csr.reg_mstatus Csr.st_sie
      | Csr.U -> true
    in
    let m_pend = Int64.logand pend (Int64.lognot csr.reg_mideleg) in
    let s_pend = Int64.logand pend csr.reg_mideleg in
    let pick pend order =
      List.find_opt (fun irq -> Csr.get_bit pend (irq_code irq)) order
    in
    let m_irq =
      if m_enabled then pick m_pend [ Meip; Msip; Mtip; Seip; Ssip; Stip ]
      else None
    in
    match m_irq with
    | Some _ as r -> r
    | None ->
        if s_enabled then pick s_pend [ Seip; Ssip; Stip ] else None
  end

(* Trap entry: update the CSR state and return the new pc. *)
let enter_trap (csr : Csr.t) ~(cause : int64) ~(interrupt : bool)
    ~(tval : int64) ~(epc : int64) : int64 =
  let code = Int64.to_int cause in
  let delegated_to_s =
    csr.priv <> Csr.M
    &&
    if interrupt then Csr.get_bit csr.reg_mideleg code
    else Csr.get_bit csr.reg_medeleg code
  in
  let full_cause =
    if interrupt then Int64.logor cause interrupt_bit else cause
  in
  if delegated_to_s then begin
    csr.reg_sepc <- epc;
    csr.reg_scause <- full_cause;
    csr.reg_stval <- tval;
    let st = csr.reg_mstatus in
    let st = Csr.set_bit st Csr.st_spie (Csr.get_bit st Csr.st_sie) in
    let st = Csr.set_bit st Csr.st_sie false in
    let st = Csr.set_bit st Csr.st_spp (csr.priv = Csr.S) in
    csr.reg_mstatus <- st;
    csr.priv <- Csr.S;
    let base = Int64.logand csr.reg_stvec (Int64.lognot 3L) in
    if interrupt && Int64.logand csr.reg_stvec 1L = 1L then
      Int64.add base (Int64.of_int (4 * code))
    else base
  end
  else begin
    csr.reg_mepc <- epc;
    csr.reg_mcause <- full_cause;
    csr.reg_mtval <- tval;
    let st = csr.reg_mstatus in
    let st = Csr.set_bit st Csr.st_mpie (Csr.get_bit st Csr.st_mie) in
    let st = Csr.set_bit st Csr.st_mie false in
    let st = Csr.set_field st Csr.st_mpp_lo 2 (Csr.priv_level csr.priv) in
    csr.reg_mstatus <- st;
    csr.priv <- Csr.M;
    let base = Int64.logand csr.reg_mtvec (Int64.lognot 3L) in
    if interrupt && Int64.logand csr.reg_mtvec 1L = 1L then
      Int64.add base (Int64.of_int (4 * code))
    else base
  end

let take_exception csr exc tval ~epc =
  enter_trap csr
    ~cause:(Int64.of_int (exc_code exc))
    ~interrupt:false ~tval ~epc

let take_interrupt csr irq ~epc =
  enter_trap csr
    ~cause:(Int64.of_int (irq_code irq))
    ~interrupt:true ~tval:0L ~epc

(* mret: return the new pc. *)
let mret (csr : Csr.t) : int64 =
  let st = csr.reg_mstatus in
  let mpp = Csr.get_field st Csr.st_mpp_lo 2 in
  let st = Csr.set_bit st Csr.st_mie (Csr.get_bit st Csr.st_mpie) in
  let st = Csr.set_bit st Csr.st_mpie true in
  let st = Csr.set_field st Csr.st_mpp_lo 2 0 in
  csr.reg_mstatus <- st;
  csr.priv <- (match mpp with 3 -> Csr.M | 1 -> Csr.S | _ -> Csr.U);
  csr.reg_mepc

(* sret: return the new pc. *)
let sret (csr : Csr.t) : int64 =
  let st = csr.reg_mstatus in
  let spp = Csr.get_bit st Csr.st_spp in
  let st = Csr.set_bit st Csr.st_sie (Csr.get_bit st Csr.st_spie) in
  let st = Csr.set_bit st Csr.st_spie true in
  let st = Csr.set_bit st Csr.st_spp false in
  csr.reg_mstatus <- st;
  csr.priv <- (if spp then Csr.S else Csr.U);
  csr.reg_sepc
