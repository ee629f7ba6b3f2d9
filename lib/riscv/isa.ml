(* The RISC-V instruction rules shared by every executor: the ISS,
   NEMU's engines and REF core, and the DUT.  Each is defined once
   here; a refusal raises [Trap.Exception], as an interpreter's traps
   do. *)

let illegal () = raise (Trap.Exception (Trap.Illegal_instruction, 0L))

(* Widths are powers of two, so the remainder test is a mask test. *)
let[@inline] misaligned vaddr size =
  Int64.logand vaddr (Int64.of_int (size - 1)) <> 0L

let[@inline] check_aligned vaddr size exc =
  if misaligned vaddr size then raise (Trap.Exception (exc, vaddr))

let[@inline] check_dram plat paddr exc ~vaddr =
  if Platform.is_mmio plat paddr then raise (Trap.Exception (exc, vaddr))

let csr_rmw csr (op : Insn.csr_op) ~rd ~rs1 ~rs1_value addr =
  try
    let old_v =
      match op with CSRRW | CSRRWI when rd = 0 -> 0L | _ -> Csr.read csr addr
    in
    let src =
      match op with
      | CSRRW | CSRRS | CSRRC -> rs1_value
      | CSRRWI | CSRRSI | CSRRCI -> Int64.of_int rs1
    in
    (match op with
    | CSRRW | CSRRWI -> Csr.write csr addr src
    | CSRRS | CSRRSI ->
        if rs1 <> 0 then Csr.write csr addr (Int64.logor old_v src)
    | CSRRC | CSRRCI ->
        if rs1 <> 0 then
          Csr.write csr addr (Int64.logand old_v (Int64.lognot src)));
    old_v
  with Csr.Illegal_csr _ -> illegal ()

let ecall (csr : Csr.t) =
  raise (Trap.Exception (Trap.ecall_cause csr.Csr.priv, 0L))

let mret (csr : Csr.t) =
  if csr.Csr.priv <> Csr.M then illegal ();
  Trap.mret csr

let sret (csr : Csr.t) =
  if csr.Csr.priv = Csr.U then illegal ();
  Trap.sret csr

let sfence_vma (csr : Csr.t) = if csr.Csr.priv = Csr.U then illegal ()
