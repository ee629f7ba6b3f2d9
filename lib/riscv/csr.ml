(* Control and status registers, privilege modes, and the machine CSR
   file shared by the reference model and the DUT's architectural
   commit state.

   Only the CSRs the workloads and the micro-kernel need are
   implemented; unknown CSR numbers read as illegal.  WARL masking is
   deliberately simple but *identical* between REF and DUT, matching
   the paper's observation that most machine-mode diff-rules concern
   read/written CSR values (we demonstrate those rules on the
   genuinely non-deterministic CSRs: time, cycle, instret, mip). *)

type priv = U | S | M [@@deriving show { with_path = false }, eq, ord]

let priv_level = function U -> 0 | S -> 1 | M -> 3

(* CSR addresses *)
let fflags = 0x001
let frm = 0x002
let fcsr = 0x003
let sstatus = 0x100
let sie = 0x104
let stvec = 0x105
let scounteren = 0x106
let sscratch = 0x140
let sepc = 0x141
let scause = 0x142
let stval = 0x143
let sip = 0x144
let satp = 0x180
let mstatus = 0x300
let misa = 0x301
let medeleg = 0x302
let mideleg = 0x303
let mie = 0x304
let mtvec = 0x305
let mcounteren = 0x306
let mscratch = 0x340
let mepc = 0x341
let mcause = 0x342
let mtval = 0x343
let mip = 0x344
let mcycle = 0xB00
let minstret = 0xB02
let cycle = 0xC00
let time = 0xC01
let instret = 0xC02
let mvendorid = 0xF11
let marchid = 0xF12
let mimpid = 0xF13
let mhartid = 0xF14

(* mstatus bit positions *)
let st_sie = 1
let st_mie = 3
let st_spie = 5
let st_mpie = 7
let st_spp = 8
let st_mpp_lo = 11
let st_fs_lo = 13
let st_sum = 18
let st_mxr = 19

let bit n = Int64.shift_left 1L n

let get_bit v n = Int64.logand (Int64.shift_right_logical v n) 1L <> 0L

let set_bit v n b =
  if b then Int64.logor v (bit n) else Int64.logand v (Int64.lognot (bit n))

let get_field v lo width =
  Int64.to_int
    (Int64.logand
       (Int64.shift_right_logical v lo)
       (Int64.of_int ((1 lsl width) - 1)))

let set_field v lo width f =
  let mask = Int64.shift_left (Int64.of_int ((1 lsl width) - 1)) lo in
  Int64.logor
    (Int64.logand v (Int64.lognot mask))
    (Int64.logand (Int64.shift_left (Int64.of_int f) lo) mask)

(* Interrupt bit positions in mip/mie *)
let ip_ssip = 1
let ip_msip = 3
let ip_stip = 5
let ip_mtip = 7
let ip_seip = 9
let ip_meip = 11

type t = {
  mutable priv : priv;
  mutable reg_mstatus : int64;
  mutable reg_misa : int64;
  mutable reg_medeleg : int64;
  mutable reg_mideleg : int64;
  mutable reg_mie : int64;
  mutable reg_mtvec : int64;
  mutable reg_mscratch : int64;
  mutable reg_mepc : int64;
  mutable reg_mcause : int64;
  mutable reg_mtval : int64;
  mutable reg_mip : int64;
  mutable reg_mcycle : int64;
  mutable reg_minstret : int;
      (* a plain int, bumped on every retirement without boxing; read
         and written as an int64 through [read]/[write] (a written
         value keeps its low 63 bits) *)
  mutable reg_mcounteren : int64;
  mutable reg_scounteren : int64;
  mutable reg_stvec : int64;
  mutable reg_sscratch : int64;
  mutable reg_sepc : int64;
  mutable reg_scause : int64;
  mutable reg_stval : int64;
  mutable reg_satp : int64;
  mutable reg_fflags : int64;
  mutable reg_frm : int64;
  hartid : int64;
  mutable time_source : unit -> int64;
      (* reads the CLINT mtime; a non-deterministic source handled by a
         diff-rule in DiffTest *)
}

let create ~hartid =
  {
    priv = M;
    reg_mstatus = 0L;
    (* RV64 ACDFIMSU *)
    reg_misa =
      Int64.logor
        (Int64.shift_left 2L 62)
        (Int64.of_int
           ((1 lsl 0) lor (1 lsl 2) lor (1 lsl 3) lor (1 lsl 5) lor (1 lsl 8)
          lor (1 lsl 12) lor (1 lsl 18) lor (1 lsl 20)));
    reg_medeleg = 0L;
    reg_mideleg = 0L;
    reg_mie = 0L;
    reg_mtvec = 0L;
    reg_mscratch = 0L;
    reg_mepc = 0L;
    reg_mcause = 0L;
    reg_mtval = 0L;
    reg_mip = 0L;
    reg_mcycle = 0L;
    reg_minstret = 0;
    reg_mcounteren = 0xFFFFFFFFL;
    reg_scounteren = 0xFFFFFFFFL;
    reg_stvec = 0L;
    reg_sscratch = 0L;
    reg_sepc = 0L;
    reg_scause = 0L;
    reg_stval = 0L;
    reg_satp = 0L;
    reg_fflags = 0L;
    reg_frm = 0L;
    hartid = Int64.of_int hartid;
    time_source = (fun () -> 0L);
  }

let copy t = { t with priv = t.priv }

(* Restore every mutable field of [dst] from [src] (typically a
   pristine [copy] taken right after reset).  [hartid] is immutable
   and [time_source] is a closure over the live platform, so both are
   left alone: a restored CSR file keeps reading the *current*
   machine's CLINT. *)
let restore dst src =
  dst.priv <- src.priv;
  dst.reg_mstatus <- src.reg_mstatus;
  dst.reg_misa <- src.reg_misa;
  dst.reg_medeleg <- src.reg_medeleg;
  dst.reg_mideleg <- src.reg_mideleg;
  dst.reg_mie <- src.reg_mie;
  dst.reg_mtvec <- src.reg_mtvec;
  dst.reg_mscratch <- src.reg_mscratch;
  dst.reg_mepc <- src.reg_mepc;
  dst.reg_mcause <- src.reg_mcause;
  dst.reg_mtval <- src.reg_mtval;
  dst.reg_mip <- src.reg_mip;
  dst.reg_mcycle <- src.reg_mcycle;
  dst.reg_minstret <- src.reg_minstret;
  dst.reg_mcounteren <- src.reg_mcounteren;
  dst.reg_scounteren <- src.reg_scounteren;
  dst.reg_stvec <- src.reg_stvec;
  dst.reg_sscratch <- src.reg_sscratch;
  dst.reg_sepc <- src.reg_sepc;
  dst.reg_scause <- src.reg_scause;
  dst.reg_stval <- src.reg_stval;
  dst.reg_satp <- src.reg_satp;
  dst.reg_fflags <- src.reg_fflags;
  dst.reg_frm <- src.reg_frm

(* sstatus is a restricted view of mstatus *)
let sstatus_mask =
  Int64.logor (bit st_sie)
    (Int64.logor (bit st_spie)
       (Int64.logor (bit st_spp)
          (Int64.logor
             (Int64.logor (bit st_sum) (bit st_mxr))
             (Int64.shift_left 3L st_fs_lo))))

(* Bits of mip writable by software via the mip CSR *)
let mip_write_mask =
  Int64.logor (bit ip_ssip) (Int64.logor (bit ip_stip) (bit ip_seip))

let sip_mask = Int64.logor (bit ip_ssip) (Int64.logor (bit ip_stip) (bit ip_seip))

let min_priv_of_addr addr = (addr lsr 8) land 0x3

let readable t addr = priv_level t.priv >= min_priv_of_addr addr

let writable t addr =
  priv_level t.priv >= min_priv_of_addr addr && (addr lsr 10) land 0x3 <> 0x3

exception Illegal_csr of int

let read t addr =
  if not (readable t addr) then raise (Illegal_csr addr);
  if addr = fflags then t.reg_fflags
  else if addr = frm then t.reg_frm
  else if addr = fcsr then
    Int64.logor (Int64.shift_left t.reg_frm 5) t.reg_fflags
  else if addr = sstatus then Int64.logand t.reg_mstatus sstatus_mask
  else if addr = sie then Int64.logand t.reg_mie t.reg_mideleg
  else if addr = stvec then t.reg_stvec
  else if addr = scounteren then t.reg_scounteren
  else if addr = sscratch then t.reg_sscratch
  else if addr = sepc then t.reg_sepc
  else if addr = scause then t.reg_scause
  else if addr = stval then t.reg_stval
  else if addr = sip then Int64.logand t.reg_mip t.reg_mideleg
  else if addr = satp then t.reg_satp
  else if addr = mstatus then t.reg_mstatus
  else if addr = misa then t.reg_misa
  else if addr = medeleg then t.reg_medeleg
  else if addr = mideleg then t.reg_mideleg
  else if addr = mie then t.reg_mie
  else if addr = mtvec then t.reg_mtvec
  else if addr = mcounteren then t.reg_mcounteren
  else if addr = mscratch then t.reg_mscratch
  else if addr = mepc then t.reg_mepc
  else if addr = mcause then t.reg_mcause
  else if addr = mtval then t.reg_mtval
  else if addr = mip then t.reg_mip
  else if addr = mcycle || addr = cycle then t.reg_mcycle
  else if addr = minstret || addr = instret then Int64.of_int t.reg_minstret
  else if addr = time then t.time_source ()
  else if addr = mvendorid then 0L
  else if addr = marchid then 0x4D494E4AL (* "MINJ" *)
  else if addr = mimpid then 1L
  else if addr = mhartid then t.hartid
  else raise (Illegal_csr addr)

let mstatus_write_mask =
  List.fold_left
    (fun acc b -> Int64.logor acc (bit b))
    (Int64.shift_left 3L st_mpp_lo)
    [ st_sie; st_mie; st_spie; st_mpie; st_spp; st_sum; st_mxr ]
  |> Int64.logor (Int64.shift_left 3L st_fs_lo)

let write t addr v =
  if not (writable t addr) then raise (Illegal_csr addr);
  if addr = fflags then t.reg_fflags <- Int64.logand v 0x1FL
  else if addr = frm then t.reg_frm <- Int64.logand v 0x7L
  else if addr = fcsr then begin
    t.reg_fflags <- Int64.logand v 0x1FL;
    t.reg_frm <- Int64.logand (Int64.shift_right_logical v 5) 0x7L
  end
  else if addr = sstatus then
    t.reg_mstatus <-
      Int64.logor
        (Int64.logand t.reg_mstatus (Int64.lognot sstatus_mask))
        (Int64.logand v sstatus_mask)
  else if addr = sie then
    t.reg_mie <-
      Int64.logor
        (Int64.logand t.reg_mie (Int64.lognot t.reg_mideleg))
        (Int64.logand v t.reg_mideleg)
  else if addr = stvec then t.reg_stvec <- Int64.logand v (Int64.lognot 2L)
  else if addr = scounteren then t.reg_scounteren <- v
  else if addr = sscratch then t.reg_sscratch <- v
  else if addr = sepc then t.reg_sepc <- Int64.logand v (Int64.lognot 1L)
  else if addr = scause then t.reg_scause <- v
  else if addr = stval then t.reg_stval <- v
  else if addr = sip then
    t.reg_mip <-
      Int64.logor
        (Int64.logand t.reg_mip (Int64.lognot (Int64.logand sip_mask t.reg_mideleg)))
        (Int64.logand v (Int64.logand sip_mask t.reg_mideleg))
  else if addr = satp then begin
    (* Only mode 0 (bare) and 8 (Sv39) are supported. *)
    let mode = get_field v 60 4 in
    if mode = 0 || mode = 8 then t.reg_satp <- v
  end
  else if addr = mstatus then
    t.reg_mstatus <-
      Int64.logor
        (Int64.logand t.reg_mstatus (Int64.lognot mstatus_write_mask))
        (Int64.logand v mstatus_write_mask)
  else if addr = misa then () (* WARL: fixed *)
  else if addr = medeleg then t.reg_medeleg <- Int64.logand v 0xFFFFL
  else if addr = mideleg then
    t.reg_mideleg <-
      Int64.logand v
        (Int64.logor (bit ip_ssip) (Int64.logor (bit ip_stip) (bit ip_seip)))
  else if addr = mie then
    t.reg_mie <-
      Int64.logand v
        (List.fold_left
           (fun acc b -> Int64.logor acc (bit b))
           0L
           [ ip_ssip; ip_msip; ip_stip; ip_mtip; ip_seip; ip_meip ])
  else if addr = mtvec then t.reg_mtvec <- Int64.logand v (Int64.lognot 2L)
  else if addr = mcounteren then t.reg_mcounteren <- v
  else if addr = mscratch then t.reg_mscratch <- v
  else if addr = mepc then t.reg_mepc <- Int64.logand v (Int64.lognot 1L)
  else if addr = mcause then t.reg_mcause <- v
  else if addr = mtval then t.reg_mtval <- v
  else if addr = mip then
    t.reg_mip <-
      Int64.logor
        (Int64.logand t.reg_mip (Int64.lognot mip_write_mask))
        (Int64.logand v mip_write_mask)
  else if addr = mcycle then t.reg_mcycle <- v
  else if addr = minstret then t.reg_minstret <- Int64.to_int v
  else raise (Illegal_csr addr)

(* Set/clear interrupt-pending bits driven by devices (CLINT).  The
   lines are sampled every cycle but rarely change: only a write that
   flips the bit builds a new value. *)
let set_mip_bit t n b =
  if get_bit t.reg_mip n <> b then t.reg_mip <- set_bit t.reg_mip n b

(* Architectural-state digest used by DiffTest for CSR comparison. *)
let compare_digest t =
  [
    ("priv", Int64.of_int (priv_level t.priv));
    ("mstatus", t.reg_mstatus);
    ("mepc", t.reg_mepc);
    ("mcause", t.reg_mcause);
    ("mtval", t.reg_mtval);
    ("mtvec", t.reg_mtvec);
    ("mscratch", t.reg_mscratch);
    ("medeleg", t.reg_medeleg);
    ("mideleg", t.reg_mideleg);
    ("mie", t.reg_mie);
    ("sepc", t.reg_sepc);
    ("scause", t.reg_scause);
    ("stval", t.reg_stval);
    ("stvec", t.reg_stvec);
    ("sscratch", t.reg_sscratch);
    ("satp", t.reg_satp);
  ]

(* [compare_digest a = compare_digest b], field by field and without
   building either list: DiffTest runs this on every hart every cycle. *)
let digest_equal a b =
  priv_level a.priv = priv_level b.priv
  && a.reg_mstatus = b.reg_mstatus
  && a.reg_mepc = b.reg_mepc
  && a.reg_mcause = b.reg_mcause
  && a.reg_mtval = b.reg_mtval
  && a.reg_mtvec = b.reg_mtvec
  && a.reg_mscratch = b.reg_mscratch
  && a.reg_medeleg = b.reg_medeleg
  && a.reg_mideleg = b.reg_mideleg
  && a.reg_mie = b.reg_mie
  && a.reg_sepc = b.reg_sepc
  && a.reg_scause = b.reg_scause
  && a.reg_stval = b.reg_stval
  && a.reg_stvec = b.reg_stvec
  && a.reg_sscratch = b.reg_sscratch
  && a.reg_satp = b.reg_satp
