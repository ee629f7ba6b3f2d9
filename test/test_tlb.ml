(* DUT TLB + hardware page walker: translation, permission checks,
   fault caching (the Figure 3 behaviour), and sfence flushing. *)

open Riscv

let page = 0x1000L

(* Build a one-page Sv39 mapping: va 0x4000_0000 -> pa, via root ->
   l1 -> l0 tables placed in fresh physical memory. *)
let make_env () =
  let backing = Memory.create ~base:Platform.dram_base ~size:(1 lsl 22) () in
  let l1d =
    Softmem.Cache.create ~name:"l1d" ~size_bytes:4096 ~ways:4 ~line_shift:6
      ~hit_latency:2 ~backing ()
  in
  Softmem.Cache.set_dram l1d (Softmem.Dram.create (Softmem.Dram.Fixed_amat 50));
  let tlb = Xiangshan.Tlb.create Xiangshan.Config.yqh ~ptw_port:l1d in
  let csr = Csr.create ~hartid:0 in
  csr.Csr.priv <- Csr.S;
  let root = Platform.dram_base in
  let l1 = Int64.add root page in
  let l0 = Int64.add root (Int64.mul 2L page) in
  let data = Int64.add root (Int64.mul 16L page) in
  Memory.write_u64 backing (Int64.add root 8L) (Pte.make ~pa:l1 [ Pte.v ]);
  Memory.write_u64 backing l1 (Pte.make ~pa:l0 [ Pte.v ]);
  Memory.write_u64 backing l0
    (Pte.make ~pa:data [ Pte.v; Pte.r; Pte.w; Pte.a; Pte.d ]);
  csr.Csr.reg_satp <- Pte.make_satp ~mode:8 ~asid:0 ~root_pa:root;
  (backing, tlb, csr, data)

let va = 0x4000_0000L

(* [Tlb.translate] reports into the TLB's own fields; this reads them
   back as the translation's outcome and latency. *)
type outcome = Translated of int64 | Page_fault of Trap.exc * int64

let translate tlb csr va access =
  Xiangshan.Tlb.translate tlb csr va access;
  ( (if tlb.Xiangshan.Tlb.faulted then Page_fault (tlb.Xiangshan.Tlb.exc, va)
     else Translated (Xiangshan.Tlb.paddr tlb)),
    tlb.Xiangshan.Tlb.latency )

let test_translate_and_cache () =
  let _, tlb, csr, data = make_env () in
  (match translate tlb csr (Int64.add va 0x123L) Riscv.Pte.Load with
  | Translated pa, lat ->
      Alcotest.(check int64) "pa" (Int64.add data 0x123L) pa;
      Alcotest.(check bool) "walk cost" true (lat > 0)
  | Page_fault _, _ -> Alcotest.fail "unexpected fault");
  (* second access hits the L1 TLB: zero latency *)
  match translate tlb csr (Int64.add va 0x456L) Riscv.Pte.Load with
  | Translated _, lat -> Alcotest.(check int) "tlb hit" 0 lat
  | Page_fault _, _ -> Alcotest.fail "unexpected fault"

let test_permissions () =
  let _, tlb, csr, _ = make_env () in
  (* page is R+W but not X: fetch must fault *)
  match translate tlb csr va Riscv.Pte.Fetch with
  | Page_fault (exc, tval), _ ->
      Alcotest.(check bool) "fetch page fault" true
        (exc = Trap.Fetch_page_fault);
      Alcotest.(check int64) "tval" va tval
  | Translated _, _ -> Alcotest.fail "fetch should fault"

let test_fault_caching_until_sfence () =
  (* the Figure 3 behaviour: a failed walk is cached; fixing the PTE
     in memory does not help until an sfence.vma *)
  let backing, tlb, csr, _ = make_env () in
  let va2 = Int64.add va page in
  (match translate tlb csr va2 Riscv.Pte.Store with
  | Page_fault _, _ -> ()
  | Translated _, _ -> Alcotest.fail "unmapped page must fault");
  (* install the PTE (what the kernel's fault handler does) *)
  let l0 = Int64.add Platform.dram_base (Int64.mul 2L page) in
  let newpage = Int64.add Platform.dram_base (Int64.mul 20L page) in
  Memory.write_u64 backing (Int64.add l0 8L)
    (Pte.make ~pa:newpage [ Pte.v; Pte.r; Pte.w; Pte.a; Pte.d ]);
  (* still faults: the invalid PTE was legally cached in the TLB *)
  (match translate tlb csr va2 Riscv.Pte.Store with
  | Page_fault _, _ -> ()
  | Translated _, _ ->
      Alcotest.fail "cached fault must persist until sfence");
  Alcotest.(check bool) "cached-fault hits counted" true
    (tlb.Xiangshan.Tlb.cached_fault_hits > 0);
  Xiangshan.Tlb.flush tlb;
  match translate tlb csr va2 Riscv.Pte.Store with
  | Translated pa, _ ->
      Alcotest.(check int64) "mapped after sfence" newpage pa
  | Page_fault _, _ -> Alcotest.fail "should map after sfence"

let test_bare_mode () =
  let _, tlb, csr, _ = make_env () in
  csr.Csr.reg_satp <- 0L;
  match translate tlb csr 0x8000_0000L Riscv.Pte.Load with
  | Translated pa, lat ->
      Alcotest.(check int64) "identity" 0x8000_0000L pa;
      Alcotest.(check int) "free" 0 lat
  | Page_fault _, _ -> Alcotest.fail "bare mode cannot fault"

let test_m_mode_bypass () =
  let _, tlb, csr, _ = make_env () in
  csr.Csr.priv <- Csr.M;
  match translate tlb csr 0x8000_0000L Riscv.Pte.Store with
  | Translated pa, _ ->
      Alcotest.(check int64) "M-mode bypasses satp" 0x8000_0000L pa
  | Page_fault _, _ -> Alcotest.fail "M-mode cannot fault"

let test_non_canonical () =
  let _, tlb, csr, _ = make_env () in
  match
    translate tlb csr 0x0100_0000_0000_0000L Riscv.Pte.Load
  with
  | Page_fault _, _ -> ()
  | Translated _, _ ->
      Alcotest.fail "non-canonical va must fault"

(* Minor words [f] allocates over 1,000 calls, after one warm-up. *)
let words_per_1000 f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    f ()
  done;
  Gc.minor_words () -. w0

(* The TLB reports into its own fields: an L1 hit and a bare or M-mode
   translation allocate nothing (no outcome, no tuple, no boxed
   physical address). *)
let test_translate_allocates_nothing () =
  let _, tlb, csr, data = make_env () in
  let va = Int64.add va 0x123L in
  List.iter
    (fun (what, access, setup, expect) ->
      setup ();
      let w =
        words_per_1000 (fun () -> Xiangshan.Tlb.translate tlb csr va access)
      in
      Alcotest.(check (float 0.)) (what ^ ": minor words") 0. w;
      Alcotest.(check bool) (what ^ ": translated") false
        tlb.Xiangshan.Tlb.faulted;
      Alcotest.(check int64) (what ^ ": pa") expect (Xiangshan.Tlb.paddr tlb))
    [
      ("L1 dTLB hit", Riscv.Pte.Load, ignore, Int64.add data 0x123L);
      ( "L1 dTLB hit, store",
        Riscv.Pte.Store,
        ignore,
        Int64.add data 0x123L );
      ("M mode", Riscv.Pte.Fetch, (fun () -> csr.Csr.priv <- Csr.M), va);
      ( "bare mode",
        Riscv.Pte.Load,
        (fun () ->
          csr.Csr.priv <- Csr.S;
          csr.Csr.reg_satp <- 0L),
        va );
    ]

let tests =
  [
    Alcotest.test_case "walk, map and TLB hit" `Quick test_translate_and_cache;
    Alcotest.test_case "permission checks" `Quick test_permissions;
    Alcotest.test_case "fault caching until sfence (Fig 3)" `Quick
      test_fault_caching_until_sfence;
    Alcotest.test_case "bare mode" `Quick test_bare_mode;
    Alcotest.test_case "M-mode bypass" `Quick test_m_mode_bypass;
    Alcotest.test_case "non-canonical address" `Quick test_non_canonical;
    Alcotest.test_case "translate allocates nothing" `Quick
      test_translate_allocates_nothing;
  ]
