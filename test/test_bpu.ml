(* Branch prediction unit: learning behaviour of each component. *)

open Riscv

let cfg = Xiangshan.Config.yqh

(* [Bpu.predict] reports into the predictor's own fields; this reads
   them back as a pair. *)
let predict bpu ~pc ~insn =
  Xiangshan.Bpu.predict bpu ~pc ~insn;
  (bpu.Xiangshan.Bpu.taken, Xiangshan.Bpu.target bpu)

let train bpu ~pc ~insn ~taken ~target ~n =
  for _ = 1 to n do
    let p_taken, p_target = predict bpu ~pc ~insn in
    let mis = p_taken <> taken || (taken && p_target <> target) in
    Xiangshan.Bpu.update bpu ~pc ~insn ~taken ~target ~mispredicted:mis
  done

let test_bimodal_learns () =
  let bpu = Xiangshan.Bpu.create cfg in
  let insn = Insn.Branch (BEQ, 1, 2, 64L) in
  let pc = 0x80000100L in
  train bpu ~pc ~insn ~taken:true ~target:0x80000140L ~n:10;
  let taken, target = predict bpu ~pc ~insn in
  Alcotest.(check bool) "predicts taken" true taken;
  Alcotest.(check int64) "target" 0x80000140L target;
  (* retrain not-taken *)
  train bpu ~pc ~insn ~taken:false ~target:0x80000104L ~n:10;
  let taken, _ = predict bpu ~pc ~insn in
  Alcotest.(check bool) "predicts not taken after retraining" false taken

let test_tage_learns_alternation () =
  (* a strict alternation is unlearnable for bimodal but trivial for a
     history-indexed tagged table *)
  let bpu = Xiangshan.Bpu.create cfg in
  let insn = Insn.Branch (BNE, 3, 4, 32L) in
  let pc = 0x80000200L in
  let target = 0x80000220L in
  let mispredicts_in phase_len =
    let mis = ref 0 in
    for i = 1 to phase_len do
      let taken = i mod 2 = 0 in
      let p_taken, p_target = predict bpu ~pc ~insn in
      let m = p_taken <> taken || (taken && p_target <> target) in
      if m then incr mis;
      Xiangshan.Bpu.update bpu ~pc ~insn ~taken ~target ~mispredicted:m
    done;
    !mis
  in
  let early = mispredicts_in 200 in
  let late = mispredicts_in 200 in
  Alcotest.(check bool)
    (Printf.sprintf "alternation learned (early %d -> late %d)" early late)
    true
    (late * 2 < max 1 early || late < 10)

let test_ras () =
  let bpu = Xiangshan.Bpu.create cfg in
  (* call from two sites, then returns must pop in LIFO order *)
  let call1 = Insn.Jal (1, 0x100L) and call2 = Insn.Jal (1, 0x200L) in
  let ret = Insn.Jalr (0, 1, 0L) in
  Xiangshan.Bpu.predict bpu ~pc:0x80001000L ~insn:call1;
  Xiangshan.Bpu.predict bpu ~pc:0x80002000L ~insn:call2;
  let _, p2 = predict bpu ~pc:0x80003000L ~insn:ret in
  Alcotest.(check int64) "inner return" 0x80002004L p2;
  let _, p1 = predict bpu ~pc:0x80004000L ~insn:ret in
  Alcotest.(check int64) "outer return" 0x80001004L p1

let test_indirect_btb () =
  let bpu = Xiangshan.Bpu.create cfg in
  let insn = Insn.Jalr (0, 5, 0L) (* indirect, not a return *) in
  let pc = 0x80005000L in
  Xiangshan.Bpu.update bpu ~pc ~insn ~taken:true ~target:0x80007777L
    ~mispredicted:true;
  let _, target = predict bpu ~pc ~insn in
  Alcotest.(check int64) "btb target" 0x80007777L target

let test_confidence () =
  let bpu = Xiangshan.Bpu.create cfg in
  let pc = 0x80006000L in
  Alcotest.(check bool) "initially unconfident" true
    (Xiangshan.Bpu.unconfident bpu ~pc);
  let insn = Insn.Branch (BEQ, 1, 2, 16L) in
  train bpu ~pc ~insn ~taken:true ~target:0x80006010L ~n:20;
  Alcotest.(check bool) "confident after a correct run" false
    (Xiangshan.Bpu.unconfident bpu ~pc);
  (* one mispredict resets confidence *)
  Xiangshan.Bpu.update bpu ~pc ~insn ~taken:false ~target:0x80006004L
    ~mispredicted:true;
  Alcotest.(check bool) "unconfident after mispredict" true
    (Xiangshan.Bpu.unconfident bpu ~pc)

(* Minor words [f] allocates over 1,000 calls, after one warm-up. *)
let words_per_1000 f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    f ()
  done;
  Gc.minor_words () -. w0

(* The predictor reports into its own fields, so a lookup allocates
   nothing: no prediction record, no boxed target, no direction pair
   and no BTB option, on every path the IFU takes. *)
let test_predict_allocates_nothing () =
  let bpu = Xiangshan.Bpu.create Xiangshan.Config.nh in
  let pc = 0x80008000L in
  let indirect = Insn.Jalr (0, 5, 0L) in
  Xiangshan.Bpu.update bpu ~pc ~insn:indirect ~taken:true ~target:0x80009000L
    ~mispredicted:true;
  List.iter
    (fun (what, insn) ->
      let w =
        words_per_1000 (fun () ->
            Xiangshan.Bpu.predict bpu ~pc ~insn;
            ignore (Sys.opaque_identity bpu.Xiangshan.Bpu.taken))
      in
      Alcotest.(check (float 0.)) (what ^ ": minor words") 0. w)
    [
      ("branch", Insn.Branch (BEQ, 1, 2, 64L));
      ("jal", Insn.Jal (0, 0x40L));
      ("call", Insn.Jal (1, 0x100L));
      ("indirect call", Insn.Jalr (1, 5, 0L));
      ("return", Insn.Jalr (0, 1, 0L));
      ("indirect jump", indirect);
      ("not a branch", Insn.Op_imm (ADD, 1, 1, 1L));
    ];
  Alcotest.(check int64) "the indirect jump's target" 0x80009000L
    (let _, target = predict bpu ~pc ~insn:indirect in
     target)

let tests =
  [
    Alcotest.test_case "bimodal learns direction" `Quick test_bimodal_learns;
    Alcotest.test_case "TAGE learns alternation" `Quick
      test_tage_learns_alternation;
    Alcotest.test_case "return address stack" `Quick test_ras;
    Alcotest.test_case "indirect target via BTB" `Quick test_indirect_btb;
    Alcotest.test_case "PUBS confidence table" `Quick test_confidence;
    Alcotest.test_case "predict allocates nothing" `Quick
      test_predict_allocates_nothing;
  ]
