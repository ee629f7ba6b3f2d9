(* Instruction encoding/decoding tests: golden encodings checked
   against the RISC-V spec plus a qcheck round-trip property over a
   generator covering every instruction class. *)

open Riscv

let check_word insn expect =
  Alcotest.(check int32)
    (Insn.show insn) (Int32.of_int expect) (Encode.encode insn)

let test_golden () =
  (* golden values cross-checked with the riscv-isa manual examples *)
  check_word (Insn.Op_imm (ADD, 1, 0, 1L)) 0x00100093;
  check_word (Insn.Op (ADD, 3, 1, 2)) 0x002081B3;
  check_word (Insn.Op (SUB, 3, 1, 2)) 0x402081B3;
  check_word (Insn.Lui (5, 0x12345000L)) 0x123452B7;
  check_word (Insn.Jal (1, 2048L)) 0x001000EF;
  check_word (Insn.Jalr (0, 1, 0L)) 0x00008067;
  check_word (Insn.Branch (BEQ, 1, 2, 16L)) 0x00208863;
  check_word (Insn.Load (LD, 7, 2, 8L)) 0x00813383;
  check_word (Insn.Store (SD, 7, 2, 8L)) 0x00713423;
  check_word (Insn.Csr (CSRRW, 0, 5, 0x305)) 0x30529073;
  check_word Insn.Ecall 0x00000073;
  check_word Insn.Mret 0x30200073;
  check_word (Insn.Op_imm (SLL, 1, 1, 3L)) 0x00309093;
  check_word (Insn.Mul (MUL, 4, 5, 6)) 0x02628233;
  check_word (Insn.Amo (AMOADD, Width_w, 10, 11, 12) : Insn.t) 0x00C5A52F

let test_decode_golden () =
  let d w = Decode.decode (Int32.of_int w) in
  Alcotest.(check bool) "addi" true (Insn.equal (d 0x00100093) (Insn.Op_imm (ADD, 1, 0, 1L)));
  Alcotest.(check bool) "fence" true (Insn.equal (d 0x0FF0000F) Insn.Fence);
  Alcotest.(check bool)
    "negative imm" true
    (Insn.equal (d 0xFFF00093) (Insn.Op_imm (ADD, 1, 0, -1L)));
  (* unknown opcodes decode to Illegal *)
  (match d 0xFFFFFFFF with
  | Insn.Illegal _ -> ()
  | i -> Alcotest.failf "expected Illegal, got %s" (Insn.show i));
  match d 0x0 with
  | Insn.Illegal _ -> ()
  | i -> Alcotest.failf "expected Illegal for 0, got %s" (Insn.show i)

(* --- generator of valid instructions -------------------------------- *)

let gen_reg = QCheck2.Gen.int_range 0 31

let gen_imm12 = QCheck2.Gen.map Int64.of_int (QCheck2.Gen.int_range (-2048) 2047)

let gen_shamt = QCheck2.Gen.map Int64.of_int (QCheck2.Gen.int_range 0 63)

let gen_branch_off =
  QCheck2.Gen.map
    (fun i -> Int64.of_int (i * 2))
    (QCheck2.Gen.int_range (-2048) 2047)

let gen_jal_off =
  QCheck2.Gen.map
    (fun i -> Int64.of_int (i * 2))
    (QCheck2.Gen.int_range (-524288) 524287)

let gen_uimm =
  QCheck2.Gen.map
    (fun i -> Int64.shift_right (Int64.shift_left (Int64.of_int i) 44) 32)
    (QCheck2.Gen.int_range (-524288) 524287)

let gen_insn : Insn.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let alu = oneofl Insn.[ ADD; SUB; SLL; SLT; SLTU; XOR; SRL; SRA; OR; AND ] in
  let alu_w = oneofl Insn.[ ADDW; SUBW; SLLW; SRLW; SRAW ] in
  let mul = oneofl Insn.[ MUL; MULH; MULHSU; MULHU; DIV; DIVU; REM; REMU ] in
  let br = oneofl Insn.[ BEQ; BNE; BLT; BGE; BLTU; BGEU ] in
  let ld = oneofl Insn.[ LB; LH; LW; LD; LBU; LHU; LWU ] in
  let st = oneofl Insn.[ SB; SH; SW; SD ] in
  let amo =
    oneofl
      Insn.
        [
          AMOSWAP; AMOADD; AMOXOR; AMOAND; AMOOR; AMOMIN; AMOMAX; AMOMINU;
          AMOMAXU;
        ]
  in
  let w = oneofl Insn.[ Width_w; Width_d ] in
  oneof
    [
      map2 (fun rd i -> Insn.Lui (rd, i)) gen_reg gen_uimm;
      map2 (fun rd i -> Insn.Auipc (rd, i)) gen_reg gen_uimm;
      map2 (fun rd off -> Insn.Jal (rd, off)) gen_reg gen_jal_off;
      map3 (fun rd rs i -> Insn.Jalr (rd, rs, i)) gen_reg gen_reg gen_imm12;
      (let* op = br in
       map3 (fun a b off -> Insn.Branch (op, a, b, off)) gen_reg gen_reg
         gen_branch_off);
      (let* op = ld in
       map3 (fun rd rs i -> Insn.Load (op, rd, rs, i)) gen_reg gen_reg gen_imm12);
      (let* op = st in
       map3 (fun rs2 rs1 i -> Insn.Store (op, rs2, rs1, i)) gen_reg gen_reg
         gen_imm12);
      (* SUB has no immediate form in RISC-V *)
      (let* op =
         oneofl Insn.[ ADD; SLL; SLT; SLTU; XOR; SRL; SRA; OR; AND ]
       in
       match op with
       | Insn.SLL | Insn.SRL | Insn.SRA ->
           map3 (fun rd rs i -> Insn.Op_imm (op, rd, rs, i)) gen_reg gen_reg
             gen_shamt
       | _ ->
           map3 (fun rd rs i -> Insn.Op_imm (op, rd, rs, i)) gen_reg gen_reg
             gen_imm12);
      (let* op = alu in
       map3 (fun rd a b -> Insn.Op (op, rd, a, b)) gen_reg gen_reg gen_reg);
      (let* op = alu_w in
       map3 (fun rd a b -> Insn.Op_w (op, rd, a, b)) gen_reg gen_reg gen_reg);
      (let* op = mul in
       map3 (fun rd a b -> Insn.Mul (op, rd, a, b)) gen_reg gen_reg gen_reg);
      map2 (fun w (rd, rs) -> Insn.Lr (w, rd, rs)) w (pair gen_reg gen_reg);
      (let* width = w in
       map3 (fun rd a b -> Insn.Sc (width, rd, a, b)) gen_reg gen_reg gen_reg);
      (let* op = amo in
       let* width = w in
       map3 (fun rd a b -> Insn.Amo (op, width, rd, a, b)) gen_reg gen_reg
         gen_reg);
      (let* op = oneofl Insn.[ CSRRW; CSRRS; CSRRC; CSRRWI; CSRRSI; CSRRCI ] in
       map3
         (fun rd rs csr -> Insn.Csr (op, rd, rs, csr))
         gen_reg gen_reg (int_range 0 4095));
      oneofl Insn.[ Ecall; Ebreak; Mret; Sret; Wfi; Fence; Fence_i ];
      map2 (fun a b -> Insn.Sfence_vma (a, b)) gen_reg gen_reg;
      map3 (fun rd rs i -> Insn.Fld (rd, rs, i)) gen_reg gen_reg gen_imm12;
      map3 (fun rs2 rs1 i -> Insn.Fsd (rs2, rs1, i)) gen_reg gen_reg gen_imm12;
      (let* op = oneofl Insn.[ FADD; FSUB; FMUL; FDIV ] in
       map3 (fun rd a b -> Insn.Fp_rrr (op, rd, a, b)) gen_reg gen_reg gen_reg);
      (let* op = oneofl Insn.[ FMADD; FMSUB; FNMSUB; FNMADD ] in
       let* r3 = gen_reg in
       map3
         (fun rd a b -> Insn.Fp_fused (op, rd, a, b, r3))
         gen_reg gen_reg gen_reg);
      (let* op = oneofl Insn.[ FSGNJ; FSGNJN; FSGNJX ] in
       map3 (fun rd a b -> Insn.Fp_sign (op, rd, a, b)) gen_reg gen_reg gen_reg);
      (let* op = oneofl Insn.[ FEQ; FLT; FLE ] in
       map3 (fun rd a b -> Insn.Fp_cmp (op, rd, a, b)) gen_reg gen_reg gen_reg);
      map2 (fun rd a -> Insn.Fsqrt_d (rd, a)) gen_reg gen_reg;
      map2 (fun rd a -> Insn.Fcvt_d_l (rd, a)) gen_reg gen_reg;
      map2 (fun rd a -> Insn.Fcvt_l_d (rd, a)) gen_reg gen_reg;
      map2 (fun rd a -> Insn.Fmv_x_d (rd, a)) gen_reg gen_reg;
      map2 (fun rd a -> Insn.Fmv_d_x (rd, a)) gen_reg gen_reg;
      map2 (fun rd a -> Insn.Fclass_d (rd, a)) gen_reg gen_reg;
    ]

let roundtrip =
  QCheck2.Test.make ~count:2000 ~name:"encode/decode round-trip"
    ~print:Insn.show gen_insn (fun insn ->
      Insn.equal (Decode.decode (Encode.encode insn)) insn)

(* every decoded word re-encodes to itself (for words that decode to a
   non-Illegal instruction) *)
let reencode =
  QCheck2.Test.make ~count:2000 ~name:"decode/encode closure"
    (QCheck2.Gen.map Int32.of_int (QCheck2.Gen.int_range 0 0xFFFFFFF))
    (fun w ->
      match Decode.decode w with
      | Insn.Illegal _ -> true
      | insn -> Insn.equal (Decode.decode (Encode.encode insn)) insn)

let test_regs_classify () =
  let op = Insn.Op (ADD, 3, 1, 2) in
  Alcotest.(check (array int)) "srcs" [| 1; 2 |] (Insn.srcs op);
  Alcotest.(check int) "rd" 3 (Insn.int_rd op);
  Alcotest.(check int) "frd" (-1) (Insn.fp_rd op);
  let fma = Insn.Fp_fused (FMADD, 1, 2, 3, 4) in
  Alcotest.(check (array int)) "fma fsrcs" [| 2; 3; 4 |] (Insn.srcs fma);
  Alcotest.(check int) "fma rd" (-1) (Insn.int_rd fma);
  Alcotest.(check int) "fma frd" 1 (Insn.fp_rd fma);
  (* integer sources lead: fsd reads its base, then its FP data *)
  Alcotest.(check (array int)) "fsd srcs" [| 1; 7 |]
    (Insn.srcs (Insn.Fsd (7, 1, 0L)));
  Alcotest.(check int) "x0 write is still reported" 0
    (Insn.int_rd (Insn.Op_imm (ADD, 0, 0, 0L)));
  Alcotest.(check bool) "branch is cf" true (Insn.is_control_flow (Insn.Branch (BEQ, 0, 0, 0L)));
  Alcotest.(check bool) "amo is store" true (Insn.is_store (Insn.Amo (AMOADD, Width_d, 1, 2, 3)));
  Alcotest.(check bool) "fld is fp" true (Insn.is_fp (Insn.Fld (0, 1, 0L)))

let tests =
  [
    Alcotest.test_case "golden encodings" `Quick test_golden;
    Alcotest.test_case "golden decodings" `Quick test_decode_golden;
    Alcotest.test_case "register usage and classification" `Quick
      test_regs_classify;
    QCheck_alcotest.to_alcotest roundtrip;
    QCheck_alcotest.to_alcotest reencode;
  ]
