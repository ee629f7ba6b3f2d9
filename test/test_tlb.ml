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

(* --- one walk, one answer ----------------------------------------------

   Each PTE case goes through the ISS's walk over physical memory
   ([Iss.Mmu.translate]), NEMU's host-TLB translate ([Nemu.Mach]) and
   the DUT's TLB and walker ([Xiangshan.Tlb]), all reading the same
   page tables: each must give the same physical address or the same
   page-fault cause. *)

type answer = Pa of int64 | Fault of int

let pp_answer ppf = function
  | Pa pa -> Format.fprintf ppf "pa 0x%Lx" pa
  | Fault cause -> Format.fprintf ppf "fault %d" cause

let answer = Alcotest.testable pp_answer ( = )

let dram = Platform.dram_base
let at off = Int64.add dram (Int64.of_int off)

(* root -> l1 -> l0 tables; the case's writes come after, so they may
   replace any of these pointers *)
let root = at 0x10000
let l1 = at 0x11000
let l0 = at 0x12000
let data = at 0x20000

let pointer pa = Pte.make ~pa [ Pte.v ]
let leaf pa flags = Pte.make ~pa (Pte.v :: Pte.a :: Pte.d :: flags)

(* va 0x4000_0000 is root slot 1, l1 slot 0, l0 slot 0 *)
let va4k = 0x4000_0123L

(* (case, PTE writes, privilege, mstatus.SUM, access, va, answer) *)
let walk_cases =
  let rw = [ Pte.r; Pte.w ] in
  [
    ("4 KiB page", [ (l0, leaf data rw) ], Csr.S, false, Pte.Load, va4k,
      Pa (Int64.add data 0x123L));
    ( "aligned 2 MiB superpage",
      [ (l1, leaf (at 0x200000) rw) ],
      Csr.S, false, Pte.Store, 0x4001_2345L, Pa (at 0x212345) );
    ( "aligned 1 GiB superpage",
      [ (Int64.add root 8L, leaf dram rw) ],
      Csr.S, false, Pte.Load, 0x4012_3456L, Pa (at 0x123456) );
    ( "non-canonical va", [ (l0, leaf data rw) ], Csr.S, false, Pte.Load,
      0x0100_0000_4000_0000L, Fault 13 );
    ( "invalid PTE",
      [ (l0, Pte.make ~pa:data [ Pte.r; Pte.w; Pte.a; Pte.d ]) ],
      Csr.S, false, Pte.Load, va4k, Fault 13 );
    ( "W without R", [ (l0, leaf data [ Pte.w ]) ], Csr.S, false, Pte.Store,
      va4k, Fault 15 );
    ( "misaligned 2 MiB superpage", [ (l1, leaf (at 0x201000) rw) ], Csr.S,
      false, Pte.Load, va4k, Fault 13 );
    ( "misaligned 1 GiB superpage",
      [ (Int64.add root 8L, leaf (at 0x200000) rw) ],
      Csr.S, false, Pte.Load, va4k, Fault 13 );
    ( "U page from S without SUM", [ (l0, leaf data (Pte.u :: rw)) ], Csr.S,
      false, Pte.Load, va4k, Fault 13 );
    ( "U page from S with SUM", [ (l0, leaf data (Pte.u :: rw)) ], Csr.S,
      true, Pte.Load, va4k, Pa (Int64.add data 0x123L) );
    ( "fetch from a non-X page", [ (l0, leaf data rw) ], Csr.S, false,
      Pte.Fetch, va4k, Fault 12 );
    ( "next-level table outside DRAM",
      [ (Int64.add root 8L, pointer 0x1000_0000L) ],
      Csr.S, false, Pte.Load, va4k, Fault 13 );
  ]

let test_one_walk_one_answer () =
  List.iter
    (fun (name, writes, priv, sum, access, va, expect) ->
      let m = Nemu.Mach.create ~dram_size:(1 lsl 22) () in
      let mem = m.Nemu.Mach.plat.Platform.mem in
      let csr = m.Nemu.Mach.csr in
      List.iter
        (fun (pa, pte) -> Memory.write_u64 mem pa pte)
        ([ (Int64.add root 8L, pointer l1); (l1, pointer l0) ] @ writes);
      csr.Csr.priv <- priv;
      csr.Csr.reg_satp <- Pte.make_satp ~mode:8 ~asid:0 ~root_pa:root;
      csr.Csr.reg_mstatus <- Csr.set_bit csr.Csr.reg_mstatus Csr.st_sum sum;
      Nemu.Mach.sync_translation m;
      let of_trap f =
        match f () with
        | pa -> Pa pa
        | exception Trap.Exception (exc, _) -> Fault (Trap.exc_code exc)
      in
      let iss =
        of_trap (fun () -> Iss.Mmu.translate m.Nemu.Mach.plat csr va access)
      in
      let nemu = of_trap (fun () -> Nemu.Mach.translate m access va) in
      let port =
        Softmem.Cache.create ~name:"ptw" ~size_bytes:4096 ~ways:4
          ~line_shift:6 ~hit_latency:2 ~backing:mem ()
      in
      Softmem.Cache.set_dram port
        (Softmem.Dram.create (Softmem.Dram.Fixed_amat 50));
      let tlb = Xiangshan.Tlb.create Xiangshan.Config.yqh ~ptw_port:port in
      Xiangshan.Tlb.translate tlb csr va access;
      let dut =
        if tlb.Xiangshan.Tlb.faulted then
          Fault (Trap.exc_code tlb.Xiangshan.Tlb.exc)
        else Pa (Xiangshan.Tlb.paddr tlb)
      in
      Alcotest.check answer (name ^ ": ISS") expect iss;
      Alcotest.check answer (name ^ ": NEMU") expect nemu;
      Alcotest.check answer (name ^ ": DUT") expect dut)
    walk_cases

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
    Alcotest.test_case "one walk, one answer: ISS, NEMU and DUT" `Quick
      test_one_walk_one_answer;
  ]
