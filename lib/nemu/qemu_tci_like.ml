(* Baseline engine modelled on QEMU's TCI (tiny code interpreter) mode:
   guest basic blocks are translated once into a linear bytecode of
   micro-operations, cached by block start address, and executed by a
   second-level dispatch loop that re-extracts operands from the
   bytecode cells -- the double dispatch is what makes TCI slower than
   a direct threaded interpreter (§III-D2).  Translated blocks are
   dropped when the machine's code epoch moves (fence.i, sfence.vma,
   satp writes); the instruction that moves it ends its block. *)

open Riscv

(* bytecode opcodes; each micro-op occupies a fixed stride of 6 cells:
   [opc; sub; rd; rs1; rs2; imm_index].  Opcodes 1..6 are reserved for
   a fused-ALU encoding no longer emitted (ALU work now goes through
   the TCG-granularity ld/exec/st triples below). *)
let op_lui = 7
let op_auipc = 8
let op_load = 9
let op_store = 10
let op_branch = 11
let op_jal = 12
let op_jalr = 13
let op_fallback = 14
let op_end = 15

(* TCG-style micro-ops: an ALU guest instruction is split into a
   load-operands / execute / store-result triple, matching the
   granularity at which QEMU's TCI re-interprets TCG ops. *)
let op_ld_rr = 20
let op_ld_ri = 21
let op_exec_alu = 22
let op_exec_aluw = 23
let op_exec_mul = 24
let op_exec_mulw = 25
let op_st = 26

let stride = 6

let alu_id : Insn.alu_op -> int = function
  | ADD -> 0 | SUB -> 1 | SLL -> 2 | SLT -> 3 | SLTU -> 4 | XOR -> 5
  | SRL -> 6 | SRA -> 7 | OR -> 8 | AND -> 9

let alu_of_id = [| Insn.ADD; SUB; SLL; SLT; SLTU; XOR; SRL; SRA; OR; AND |]

let aluw_id : Insn.alu_w_op -> int = function
  | ADDW -> 0 | SUBW -> 1 | SLLW -> 2 | SRLW -> 3 | SRAW -> 4

let aluw_of_id = [| Insn.ADDW; SUBW; SLLW; SRLW; SRAW |]

let mul_id : Insn.mul_op -> int = function
  | MUL -> 0 | MULH -> 1 | MULHSU -> 2 | MULHU -> 3 | DIV -> 4 | DIVU -> 5
  | REM -> 6 | REMU -> 7

let mul_of_id = [| Insn.MUL; MULH; MULHSU; MULHU; DIV; DIVU; REM; REMU |]

let mulw_id : Insn.mul_w_op -> int = function
  | MULW -> 0 | DIVW -> 1 | DIVUW -> 2 | REMW -> 3 | REMUW -> 4

let mulw_of_id = [| Insn.MULW; DIVW; DIVUW; REMW; REMUW |]

let branch_id : Insn.branch_op -> int = function
  | BEQ -> 0 | BNE -> 1 | BLT -> 2 | BGE -> 3 | BLTU -> 4 | BGEU -> 5

let branch_of_id = [| Insn.BEQ; BNE; BLT; BGE; BLTU; BGEU |]

let load_id : Insn.load_op -> int = function
  | LB -> 0 | LH -> 1 | LW -> 2 | LD -> 3 | LBU -> 4 | LHU -> 5 | LWU -> 6

let load_of_id = [| Insn.LB; LH; LW; LD; LBU; LHU; LWU |]

let store_id : Insn.store_op -> int = function
  | SB -> 0 | SH -> 1 | SW -> 2 | SD -> 3

let store_of_id = [| Insn.SB; SH; SW; SD |]

type block = {
  start_pc : int64;
  code : int array;
  imms : int64 array;
  fallbacks : Insn.t array;
  n_insns : int;
}

type t = {
  blocks : (int64, block) Hashtbl.t;
  mutable epoch : int; (* the code epoch the blocks were translated in *)
  mutable translated_blocks : int;
}

let create () =
  { blocks = Hashtbl.create 1024; epoch = 0; translated_blocks = 0 }

let max_block_insns = 64

(* Translate the basic block starting at [pc].  A fetch fault at [pc]
   itself propagates to the caller, which takes it. *)
let translate (m : Mach.t) (start_pc : int64) : block =
  let code = ref [] and imms = ref [] and fallbacks = ref [] in
  let n_imms = ref 0 and n_fb = ref 0 in
  let emit opc sub rd rs1 rs2 imm_idx =
    code := imm_idx :: rs2 :: rs1 :: rd :: sub :: opc :: !code
  in
  let imm v =
    imms := v :: !imms;
    incr n_imms;
    !n_imms - 1
  in
  let fb insn =
    fallbacks := insn :: !fallbacks;
    incr n_fb;
    !n_fb - 1
  in
  let rec go pc n =
    if n >= max_block_insns then emit op_end 0 0 0 0 (imm pc)
    else
      match Exec_generic.fetch_decode ~at:pc m with
      | exception Trap.Exception _ when n > 0 ->
          (* the fault is taken when execution reaches [pc], as the
             first instruction of a block of its own *)
          emit op_end 0 0 0 0 (imm pc)
      | insn -> emit_insn pc n insn
  and emit_insn pc n insn =
    let continue () = go (Int64.add pc 4L) (n + 1) in
    match insn with
    | Op (op, rd, rs1, rs2) ->
        emit op_ld_rr 0 0 rs1 rs2 0;
        emit op_exec_alu (alu_id op) 0 0 0 0;
        emit op_st 0 rd 0 0 0;
        continue ()
    | Op_imm (op, rd, rs1, v) ->
        emit op_ld_ri 0 0 rs1 0 (imm v);
        emit op_exec_alu (alu_id op) 0 0 0 0;
        emit op_st 0 rd 0 0 0;
        continue ()
    | Op_w (op, rd, rs1, rs2) ->
        emit op_ld_rr 0 0 rs1 rs2 0;
        emit op_exec_aluw (aluw_id op) 0 0 0 0;
        emit op_st 0 rd 0 0 0;
        continue ()
    | Op_imm_w (op, rd, rs1, v) ->
        emit op_ld_ri 0 0 rs1 0 (imm v);
        emit op_exec_aluw (aluw_id op) 0 0 0 0;
        emit op_st 0 rd 0 0 0;
        continue ()
    | Mul (op, rd, rs1, rs2) ->
        emit op_ld_rr 0 0 rs1 rs2 0;
        emit op_exec_mul (mul_id op) 0 0 0 0;
        emit op_st 0 rd 0 0 0;
        continue ()
    | Mul_w (op, rd, rs1, rs2) ->
        emit op_ld_rr 0 0 rs1 rs2 0;
        emit op_exec_mulw (mulw_id op) 0 0 0 0;
        emit op_st 0 rd 0 0 0;
        continue ()
    | Lui (rd, v) ->
        emit op_lui 0 rd 0 0 (imm v);
        continue ()
    | Auipc (rd, v) ->
        emit op_auipc 0 rd 0 0 (imm (Int64.add pc v));
        continue ()
    | Load (op, rd, rs1, v) ->
        emit op_load (load_id op) rd rs1 0 (imm v);
        continue ()
    | Store (op, rs2, rs1, v) ->
        emit op_store (store_id op) 0 rs1 rs2 (imm v);
        continue ()
    | Branch (op, rs1, rs2, off) ->
        (* imm slot holds the taken target; next imm the fallthrough *)
        let idx = imm (Int64.add pc off) in
        let _ = imm (Int64.add pc 4L) in
        emit op_branch (branch_id op) 0 rs1 rs2 idx
    | Jal (rd, off) ->
        emit op_jal 0 rd 0 0 (imm (Int64.add pc off));
        let _ = imm (Int64.add pc 4L) in
        ()
    | Jalr (rd, rs1, v) ->
        emit op_jalr 0 rd rs1 0 (imm v);
        let _ = imm (Int64.add pc 4L) in
        ()
    | Lr _ | Sc _ | Amo _ | Csr _ | Ecall | Ebreak | Mret | Sret | Wfi
    | Fence | Fence_i | Sfence_vma _ | Fld _ | Fsd _ | Fp_rrr _
    | Fp_fused _ | Fp_sign _ | Fp_minmax _ | Fp_cmp _ | Fsqrt_d _
    | Fcvt_d_l _ | Fcvt_d_lu _ | Fcvt_d_w _ | Fcvt_l_d _ | Fcvt_lu_d _
    | Fcvt_w_d _ | Fmv_x_d _ | Fmv_d_x _ | Fclass_d _ | Illegal _ ->
        let ends_block = Insn.is_control_flow insn in
        emit op_fallback (fb insn) 0 0 0 (imm pc);
        if ends_block then () else continue ()
  in
  go start_pc 0;
  {
    start_pc;
    code = Array.of_list (List.rev !code);
    imms = Array.of_list (List.rev !imms);
    fallbacks = Array.of_list (List.rev !fallbacks);
    n_insns = 0;
  }

(* Execute one translated block; returns instructions executed. *)
let exec_block (m : Mach.t) (b : block) : int =
  let code = b.code and imms = b.imms in
  let regs = m.Mach.regs in
  let rg r = if r = 0 then 0L else Bigarray.Array1.get regs r in
  let wr r v = if r <> 0 then Bigarray.Array1.set regs r v in
  let n = Array.length code / stride in
  let executed = ref 0 in
  let tmp_a = ref 0L and tmp_b = ref 0L and tmp_c = ref 0L in
  let epoch = m.Mach.code_epoch in
  let rec go i pc =
    if i >= n then m.Mach.pc <- pc
    else begin
      let base = i * stride in
      let opc = code.(base) in
      let sub = code.(base + 1) in
      let rd = code.(base + 2) in
      let rs1 = code.(base + 3) in
      let rs2 = code.(base + 4) in
      let ix = code.(base + 5) in
      if opc = op_ld_rr then begin
        tmp_a := rg rs1;
        tmp_b := rg rs2;
        go (i + 1) pc
      end
      else if opc = op_ld_ri then begin
        tmp_a := rg rs1;
        tmp_b := imms.(ix);
        go (i + 1) pc
      end
      else if opc = op_exec_alu then begin
        incr executed;
        tmp_c := Iss.Alu.eval_alu alu_of_id.(sub) !tmp_a !tmp_b;
        go (i + 1) pc
      end
      else if opc = op_exec_aluw then begin
        incr executed;
        tmp_c := Iss.Alu.eval_alu_w aluw_of_id.(sub) !tmp_a !tmp_b;
        go (i + 1) pc
      end
      else if opc = op_exec_mul then begin
        incr executed;
        tmp_c := Iss.Alu.eval_mul mul_of_id.(sub) !tmp_a !tmp_b;
        go (i + 1) pc
      end
      else if opc = op_exec_mulw then begin
        incr executed;
        tmp_c := Iss.Alu.eval_mul_w mulw_of_id.(sub) !tmp_a !tmp_b;
        go (i + 1) pc
      end
      else if opc = op_st then begin
        wr rd !tmp_c;
        go (i + 1) (Int64.add pc 4L)
      end
      else if opc = op_lui then begin
        incr executed;
        wr rd imms.(ix);
        go (i + 1) (Int64.add pc 4L)
      end
      else if opc = op_auipc then begin
        incr executed;
        wr rd imms.(ix);
        go (i + 1) (Int64.add pc 4L)
      end
      else if opc = op_load then begin
        incr executed;
        let op = load_of_id.(sub) in
        m.Mach.pc <- pc (* precise epc if the access traps *);
        let v =
          Exec_generic.load m
            (Int64.add (rg rs1) imms.(ix))
            (Iss.Alu.load_width op)
        in
        wr rd (Iss.Alu.extend_load op v);
        go (i + 1) (Int64.add pc 4L)
      end
      else if opc = op_store then begin
        incr executed;
        let op = store_of_id.(sub) in
        m.Mach.pc <- pc;
        Exec_generic.store m
          (Int64.add (rg rs1) imms.(ix))
          (Iss.Alu.store_width op) (rg rs2);
        if m.Mach.running then go (i + 1) (Int64.add pc 4L)
        else m.Mach.pc <- Int64.add pc 4L
      end
      else if opc = op_branch then begin
        incr executed;
        if Iss.Alu.eval_branch branch_of_id.(sub) (rg rs1) (rg rs2) then
          m.Mach.pc <- imms.(ix)
        else m.Mach.pc <- imms.(ix + 1)
      end
      else if opc = op_jal then begin
        incr executed;
        wr rd imms.(ix + 1);
        m.Mach.pc <- imms.(ix)
      end
      else if opc = op_jalr then begin
        incr executed;
        let target =
          Int64.logand (Int64.add (rg rs1) imms.(ix)) (Int64.lognot 1L)
        in
        wr rd imms.(ix + 1);
        m.Mach.pc <- target
      end
      else if opc = op_fallback then begin
        incr executed;
        let insn = b.fallbacks.(sub) in
        m.Mach.pc <- imms.(ix);
        Exec_generic.exec Exec_generic.host_fp m imms.(ix) insn;
        (* a moved code epoch leaves the rest of the block stale *)
        if Insn.is_control_flow insn || m.Mach.code_epoch <> epoch then ()
        else go (i + 1) (Int64.add pc 4L)
      end
      else
        (* op_end: not a guest instruction *)
        m.Mach.pc <- imms.(ix)
    end
  in
  (try go 0 b.start_pc
   with Trap.Exception (exc, tval) -> Mach.take_trap m exc tval ~epc:m.Mach.pc);
  !executed

let name = "qemu-tci-like"

let run (m : Mach.t) ~max_insns : int =
  let t = create () in
  let start = m.Mach.instret in
  while m.Mach.running && m.Mach.instret - start < max_insns do
    let pc = m.Mach.pc in
    if t.epoch <> m.Mach.code_epoch then begin
      Hashtbl.reset t.blocks;
      t.epoch <- m.Mach.code_epoch
    end;
    (match Hashtbl.find_opt t.blocks pc with
    | Some b -> m.Mach.instret <- m.Mach.instret + exec_block m b
    | None -> (
        match translate m pc with
        | b ->
            Hashtbl.replace t.blocks pc b;
            t.translated_blocks <- t.translated_blocks + 1;
            m.Mach.instret <- m.Mach.instret + exec_block m b
        | exception Trap.Exception (exc, tval) ->
            (* a fetch fault retires its instruction, as in
               [Exec_generic.step] *)
            Mach.take_trap m exc tval ~epc:pc;
            m.Mach.instret <- m.Mach.instret + 1));
    Mach.check_running m
  done;
  m.Mach.instret - start
