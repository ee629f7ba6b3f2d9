(* Architectural state of one hart: the state space S_P of the paper's
   formal model.  Both the REF and the DUT's commit stage maintain one
   of these; DiffTest compares them under the active diff-rules. *)

type t = {
  regs : int64 array; (* x0..x31; x0 pinned to zero *)
  fregs : int64 array; (* f0..f31, raw IEEE-754 bits *)
  mutable pc : int64;
  csr : Csr.t;
  mutable reservation : int64 option; (* LR/SC reservation address *)
  hartid : int;
}

let create ?(pc = Platform.dram_base) ~hartid () =
  {
    regs = Array.make 32 0L;
    fregs = Array.make 32 0L;
    pc;
    csr = Csr.create ~hartid;
    reservation = None;
    hartid;
  }

let get_reg t r = if r = 0 then 0L else t.regs.(r)

let set_reg t r v = if r <> 0 then t.regs.(r) <- v

let get_freg t r = t.fregs.(r)

let set_freg t r v = t.fregs.(r) <- v

let copy t =
  {
    regs = Array.copy t.regs;
    fregs = Array.copy t.fregs;
    pc = t.pc;
    csr = Csr.copy t.csr;
    reservation = t.reservation;
    hartid = t.hartid;
  }

let restore_from t ~src =
  Array.blit src.regs 0 t.regs 0 32;
  Array.blit src.fregs 0 t.fregs 0 32;
  t.pc <- src.pc;
  t.reservation <- src.reservation;
  let c = t.csr and s = src.csr in
  c.Csr.priv <- s.Csr.priv;
  c.reg_mstatus <- s.reg_mstatus;
  c.reg_medeleg <- s.reg_medeleg;
  c.reg_mideleg <- s.reg_mideleg;
  c.reg_mie <- s.reg_mie;
  c.reg_mtvec <- s.reg_mtvec;
  c.reg_mscratch <- s.reg_mscratch;
  c.reg_mepc <- s.reg_mepc;
  c.reg_mcause <- s.reg_mcause;
  c.reg_mtval <- s.reg_mtval;
  c.reg_mip <- s.reg_mip;
  c.reg_mcycle <- s.reg_mcycle;
  c.reg_minstret <- s.reg_minstret;
  c.reg_stvec <- s.reg_stvec;
  c.reg_sscratch <- s.reg_sscratch;
  c.reg_sepc <- s.reg_sepc;
  c.reg_scause <- s.reg_scause;
  c.reg_stval <- s.reg_stval;
  c.reg_satp <- s.reg_satp;
  c.reg_fflags <- s.reg_fflags;
  c.reg_frm <- s.reg_frm

(* The DiffTest report: the first difference between the DUT state [a]
   and a REF state given field by field, in the order pc, x1..x31,
   f0..f31, then the CSR digest.  Both REF backends render their
   mismatches here, so a failure reads the same whichever is active.
   Only called once a mismatch is known, so it may allocate. *)
let report a ~pc ~(reg : int -> int64) ~(freg : int -> int64) ~(csr : Csr.t) :
    string option =
  let rec xregs i =
    if i > 31 then fregs 0
    else
      let v = reg i in
      if a.regs.(i) <> v then
        Some
          (Printf.sprintf "x%d(%s): 0x%Lx vs 0x%Lx" i (Insn.reg_name i)
             a.regs.(i) v)
      else xregs (i + 1)
  and fregs i =
    if i > 31 then csrs (Csr.compare_digest a.csr) (Csr.compare_digest csr)
    else
      let v = freg i in
      if a.fregs.(i) <> v then
        Some (Printf.sprintf "f%d: 0x%Lx vs 0x%Lx" i a.fregs.(i) v)
      else fregs (i + 1)
  and csrs da db =
    match (da, db) with
    | (name, va) :: da, (_, vb) :: db ->
        if va <> vb then
          Some (Printf.sprintf "csr %s: 0x%Lx vs 0x%Lx" name va vb)
        else csrs da db
    | _ -> None
  in
  if a.pc <> pc then Some (Printf.sprintf "pc: 0x%Lx vs 0x%Lx" a.pc pc)
  else xregs 1

(* Top-level loops: a local recursive function would close over the
   two states, and that closure is itself an allocation. *)
let rec regs_equal a b i =
  i > 31 || (a.regs.(i) = b.regs.(i) && regs_equal a b (i + 1))

let rec fregs_equal a b i =
  i > 31 || (a.fregs.(i) = b.fregs.(i) && fregs_equal a b (i + 1))

(* Everything [report] compares, compared in place: allocates nothing,
   so the per-cycle check is free when the states agree. *)
let equal a b =
  a.pc = b.pc && regs_equal a b 1 && fregs_equal a b 0
  && Csr.digest_equal a.csr b.csr

(* First difference between two states, for DiffTest reports. *)
let diff a b : string option =
  if equal a b then None
  else
    report a ~pc:b.pc ~reg:(Array.get b.regs) ~freg:(Array.get b.fregs)
      ~csr:b.csr
