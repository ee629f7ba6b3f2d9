(* The predecoded static-instruction records agree with the decoder.

   The reference functions below are verbatim copies of the
   per-instruction facts dispatch and issue derived before records
   existed (classification, sources and their kinds, destinations,
   latency, LSU queues); every record the memo hands out must match
   them, for random words, for every instruction class the encoder
   emits, for every word of the workload suite, and across words that
   evict each other from one memo slot. *)

open Riscv
module P = Xiangshan.Predecode

(* --- reference copies ------------------------------------------------ *)

let ref_classify (insn : Insn.t) : Xiangshan.Config.exec_class * P.where =
  match insn with
  | Op_imm _ | Op_imm_w _ | Op _ | Op_w _ | Lui _ | Auipc _ | Branch _ ->
      (ALU, In_iq)
  | Mul (m, _, _, _) -> (
      match m with
      | MUL | MULH | MULHSU | MULHU -> (MUL, In_iq)
      | DIV | DIVU | REM | REMU -> (DIV, In_iq))
  | Mul_w (m, _, _, _) -> (
      match m with MULW -> (MUL, In_iq) | DIVW | DIVUW | REMW | REMUW -> (DIV, In_iq))
  | Jal _ | Jalr _ -> (JUMP_CSR, In_iq)
  | Load _ | Fld _ -> (LOAD, In_iq)
  | Store _ | Fsd _ -> (STORE, In_iq)
  | Lr _ | Sc _ | Amo _ -> (LOAD, At_commit)
  | Csr _ | Ecall | Ebreak | Mret | Sret | Wfi | Fence | Fence_i
  | Sfence_vma _ | Illegal _ ->
      (JUMP_CSR, At_commit)
  | Fp_rrr (op, _, _, _) -> (
      match op with FADD | FSUB | FMUL -> (FMAC, In_iq) | FDIV -> (FMISC, In_iq))
  | Fp_fused _ -> (FMAC, In_iq)
  | Fsqrt_d _ -> (FMISC, In_iq)
  | Fp_sign _ | Fp_minmax _ | Fp_cmp _ | Fcvt_d_l _ | Fcvt_d_lu _
  | Fcvt_d_w _ | Fcvt_l_d _ | Fcvt_lu_d _ | Fcvt_w_d _ | Fmv_x_d _
  | Fmv_d_x _ | Fclass_d _ ->
      (FMISC, In_iq)

let ref_latency (cls : Xiangshan.Config.exec_class) (insn : Insn.t) =
  match cls with
  | ALU -> 1
  | MUL -> 3
  | DIV -> 12
  | JUMP_CSR -> 1
  | LOAD -> 1
  | STORE -> 1
  | FMAC -> ( match insn with Fp_fused _ -> 5 | _ -> 3)
  | FMISC -> (
      match insn with Fp_rrr (FDIV, _, _, _) -> 12 | Fsqrt_d _ -> 16 | _ -> 2)

let ref_srcs = function
  | Insn.Lui _ | Auipc _ | Jal _
  | Csr ((CSRRWI | CSRRSI | CSRRCI), _, _, _)
  | Ecall | Ebreak | Mret | Sret | Wfi | Fence | Fence_i | Illegal _ ->
      [||]
  | Jalr (_, rs1, _)
  | Load (_, _, rs1, _)
  | Op_imm (_, _, rs1, _)
  | Op_imm_w (_, _, rs1, _)
  | Lr (_, _, rs1)
  | Csr (_, _, rs1, _)
  | Fld (_, rs1, _)
  | Fcvt_d_l (_, rs1) | Fcvt_d_lu (_, rs1) | Fcvt_d_w (_, rs1) | Fmv_d_x (_, rs1)
    ->
      [| rs1 |]
  | Branch (_, rs1, rs2, _)
  | Store (_, rs2, rs1, _)
  | Op (_, _, rs1, rs2)
  | Op_w (_, _, rs1, rs2)
  | Mul (_, _, rs1, rs2)
  | Mul_w (_, _, rs1, rs2)
  | Sc (_, _, rs1, rs2)
  | Amo (_, _, _, rs1, rs2)
  | Sfence_vma (rs1, rs2) ->
      [| rs1; rs2 |]
  | Fsd (frs2, rs1, _) -> [| rs1; frs2 |]
  | Fp_rrr (_, _, f1, f2)
  | Fp_sign (_, _, f1, f2)
  | Fp_minmax (_, _, f1, f2)
  | Fp_cmp (_, _, f1, f2) ->
      [| f1; f2 |]
  | Fp_fused (_, _, f1, f2, f3) -> [| f1; f2; f3 |]
  | Fsqrt_d (_, f1)
  | Fcvt_l_d (_, f1)
  | Fcvt_lu_d (_, f1)
  | Fcvt_w_d (_, f1)
  | Fmv_x_d (_, f1)
  | Fclass_d (_, f1) ->
      [| f1 |]

let ref_int_rd = function
  | Insn.Lui (rd, _) | Auipc (rd, _) | Jal (rd, _) | Jalr (rd, _, _)
  | Load (_, rd, _, _)
  | Op_imm (_, rd, _, _)
  | Op_imm_w (_, rd, _, _)
  | Op (_, rd, _, _)
  | Op_w (_, rd, _, _)
  | Mul (_, rd, _, _)
  | Mul_w (_, rd, _, _)
  | Lr (_, rd, _)
  | Sc (_, rd, _, _)
  | Amo (_, _, rd, _, _)
  | Csr (_, rd, _, _)
  | Fp_cmp (_, rd, _, _)
  | Fcvt_l_d (rd, _) | Fcvt_lu_d (rd, _) | Fcvt_w_d (rd, _) | Fmv_x_d (rd, _)
  | Fclass_d (rd, _) ->
      rd
  | _ -> -1

let ref_fp_rd = function
  | Insn.Fld (frd, _, _)
  | Fp_rrr (_, frd, _, _)
  | Fp_sign (_, frd, _, _)
  | Fp_minmax (_, frd, _, _)
  | Fp_fused (_, frd, _, _, _)
  | Fsqrt_d (frd, _)
  | Fcvt_d_l (frd, _) | Fcvt_d_lu (frd, _) | Fcvt_d_w (frd, _) | Fmv_d_x (frd, _)
    ->
      frd
  | _ -> -1

let ref_src_kinds (insn : Insn.t) n =
  match insn with
  | Fsd _ -> [| false; true |]
  | Fp_rrr _ | Fp_sign _ | Fp_minmax _ | Fp_fused _ | Fp_cmp _ | Fsqrt_d _
  | Fcvt_l_d _ | Fcvt_lu_d _ | Fcvt_w_d _ | Fmv_x_d _ | Fclass_d _ ->
      Array.make n true
  | _ -> Array.make n false

let ref_uses_lq (insn : Insn.t) where =
  (match insn with Load _ | Fld _ | Lr _ -> true | _ -> false) && where = P.In_iq

let ref_uses_sq (insn : Insn.t) = match insn with Store _ | Fsd _ -> true | _ -> false

(* The destination dispatch renames: an integer one unless it is x0,
   else an FP one. *)
let ref_dest insn =
  let int_rd = match ref_int_rd insn with 0 -> -1 | r -> r in
  let fp_rd = ref_fp_rd insn in
  if int_rd >= 0 then (int_rd, false) else if fp_rd >= 0 then (fp_rd, true) else (-1, false)

(* --- the property ----------------------------------------------------- *)

(* Why [r] is not the record of [word], if it is not. *)
let mismatch word (r : P.t) =
  let insn = Decode.decode_int word in
  let cls, where = ref_classify insn in
  let srcs = ref_srcs insn in
  let rd, rd_fp = ref_dest insn in
  let checks =
    [
      ("word", r.word = word);
      ("insn", Insn.equal r.insn insn);
      ("exec class", r.exec_class = cls);
      ("placement", r.where = where);
      ("sources", r.srcs = srcs);
      ("source kinds", r.src_fp = ref_src_kinds insn (Array.length srcs));
      ("destination", r.rd = rd && r.rd_is_fp = rd_fp);
      ("latency", r.latency = ref_latency cls insn);
      ("LQ", r.uses_lq = ref_uses_lq insn where);
      ("SQ", r.uses_sq = ref_uses_sq insn);
    ]
  in
  match List.find_opt (fun (_, ok) -> not ok) checks with
  | Some (what, _) -> Some (Printf.sprintf "0x%08x (%s): %s" word (Insn.show insn) what)
  | None -> None

let agrees word = mismatch word (P.lookup word) = None

let print_word = Printf.sprintf "0x%08x"

(* Uniform words are mostly illegal; forcing a real major opcode into
   the low seven bits reaches every decoder branch. *)
let gen_word =
  let open QCheck2.Gen in
  let opcodes =
    [ 0x03; 0x07; 0x0F; 0x13; 0x17; 0x1B; 0x23; 0x27; 0x2F; 0x33; 0x37; 0x3B;
      0x43; 0x47; 0x4B; 0x4F; 0x53; 0x63; 0x67; 0x6F; 0x73 ]
  in
  oneof
    [
      int_range 0 0xFFFF_FFFF;
      map2 (fun hi op -> (hi lsl 7) lor op) (int_range 0 0x1FF_FFFF) (oneofl opcodes);
      map Encode.encode_int Test_insn.gen_insn;
    ]

let random_words =
  QCheck2.Test.make ~count:5000 ~name:"records of random words match the reference"
    ~print:print_word gen_word agrees

(* A word and another found in its memo slot, looked up alternately:
   each lookup evicts the other's record, and must never return it. *)
let collide w =
  let s = P.slot w in
  let rec other c = if c <> w && P.slot c = s then c else other ((c + 1) land 0xFFFF_FFFF) in
  let w' = other ((w + 1) land 0xFFFF_FFFF) in
  List.for_all agrees [ w; w'; w; w'; w ]

let colliding_words =
  QCheck2.Test.make ~count:500 ~name:"words sharing a memo slot never alias"
    ~print:print_word gen_word collide

let suite_programs () =
  List.map (fun (w : Workloads.Wl_common.t) -> w.program ~scale:1)
    (Workloads.Suite.all @ Workloads.Suite.system @ Workloads.Suite.smp)

(* Every word the assembler emitted for the suite, and every pair of
   them that shares a slot, in both lookup orders. *)
let test_suite_words () =
  let words =
    List.concat_map
      (fun (p : Asm.program) ->
        Array.to_list (Array.map (fun w -> Int32.to_int w land 0xFFFF_FFFF) p.words))
      (suite_programs ())
    |> List.sort_uniq compare
  in
  List.iter
    (fun w ->
      match mismatch w (P.lookup w) with
      | Some why -> Alcotest.fail why
      | None -> ())
    words;
  let by_slot = Hashtbl.create 1024 in
  List.iter (fun w -> Hashtbl.add by_slot (P.slot w) w) words;
  let pairs = ref 0 in
  Hashtbl.iter
    (fun _ w ->
      List.iter
        (fun w' ->
          if w' <> w then begin
            incr pairs;
            List.iter
              (fun x ->
                match mismatch x (P.lookup x) with
                | Some why -> Alcotest.fail ("after eviction: " ^ why)
                | None -> ())
              [ w; w'; w ]
          end)
        (Hashtbl.find_all by_slot (P.slot w)))
    by_slot;
  Alcotest.(check bool) "the suite has colliding words" true (!pairs > 0)

(* The fixed records: free slots and faulting fetches, and the
   interrupt pseudo-uop's. *)
let test_fixed_records () =
  Alcotest.(check bool) "none is Illegal 0" true
    (Insn.equal P.none.insn (Insn.Illegal 0l) && P.none.rd = -1);
  let nop = P.of_insn (Insn.Op_imm (ADD, 0, 0, 0L)) in
  Alcotest.(check int) "an x0 write renames nothing" (-1) nop.rd;
  Alcotest.(check bool) "shared kinds are all integer" true
    (Array.for_all not P.int_srcs && Array.length P.int_srcs = 3)

let tests =
  [
    QCheck_alcotest.to_alcotest random_words;
    QCheck_alcotest.to_alcotest colliding_words;
    Alcotest.test_case "every suite word, colliding pairs too" `Quick
      test_suite_words;
    Alcotest.test_case "fixed records" `Quick test_fixed_records;
  ]
