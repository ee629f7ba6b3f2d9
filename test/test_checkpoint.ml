(* Checkpoints + SimPoint: capture/restore round-trips across all
   three execution substrates, serialisation, clustering determinism,
   and the sampled-estimation accuracy. *)

let capture_at prog n =
  let m = Nemu.Mach.create () in
  Nemu.Mach.load_program m prog;
  let e = Nemu.Fast.create m in
  let _ = Nemu.Fast.run e ~max_insns:n in
  Checkpoint.Arch_checkpoint.capture_mach m

let test_roundtrip_iss_dut () =
  let w = Workloads.Suite.find "coremark_like" in
  let prog = w.program ~scale:1 in
  (* reference exit code from an uninterrupted run *)
  let iss0 = Iss.Interp.create ~hartid:0 () in
  Iss.Interp.load_program iss0 prog;
  let _ = Iss.Interp.run ~max_insns:100_000_000 iss0 in
  let expect = Iss.Interp.exit_code iss0 in
  let ck = capture_at prog 5_000 in
  Alcotest.(check int64) "position" 5_000L ck.Checkpoint.Arch_checkpoint.ck_instret;
  (* resume on the ISS *)
  let iss = Iss.Interp.create ~hartid:0 () in
  Checkpoint.Arch_checkpoint.restore_interp ck iss;
  let _ = Iss.Interp.run ~max_insns:100_000_000 iss in
  Alcotest.(check (option int)) "ISS resume" expect (Iss.Interp.exit_code iss);
  (* resume on the cycle-level DUT *)
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Checkpoint.Arch_checkpoint.restore_soc ck soc;
  let _ = Xiangshan.Soc.run ~max_cycles:50_000_000 soc in
  Alcotest.(check (option int)) "DUT resume" expect (Xiangshan.Soc.exit_code soc);
  (* resume on a fresh NEMU *)
  let m = Nemu.Mach.create () in
  Checkpoint.Arch_checkpoint.restore_arch ck
    (let st = Riscv.Arch_state.create ~hartid:0 () in
     st)
    m.Nemu.Mach.plat;
  ()

let test_serialisation () =
  let prog = (Workloads.Suite.find "sjeng_like").program ~scale:1 in
  let ck = capture_at prog 3_000 in
  let path = Filename.temp_file "minjie_ck" ".bin" in
  Checkpoint.Arch_checkpoint.save ck ~path;
  let ck' = Checkpoint.Arch_checkpoint.load ~path in
  Sys.remove path;
  Alcotest.(check int64) "pc preserved" ck.ck_pc ck'.Checkpoint.Arch_checkpoint.ck_pc;
  Alcotest.(check int) "pages preserved"
    (Checkpoint.Arch_checkpoint.size_bytes ck)
    (Checkpoint.Arch_checkpoint.size_bytes ck');
  (* restoring the loaded checkpoint behaves identically *)
  let iss = Iss.Interp.create ~hartid:0 () in
  Checkpoint.Arch_checkpoint.restore_interp ck' iss;
  let iss2 = Iss.Interp.create ~hartid:0 () in
  Checkpoint.Arch_checkpoint.restore_interp ck iss2;
  for _ = 1 to 1000 do
    ignore (Iss.Interp.step iss);
    ignore (Iss.Interp.step iss2)
  done;
  match Riscv.Arch_state.diff iss.Iss.Interp.st iss2.Iss.Interp.st with
  | None -> ()
  | Some m -> Alcotest.failf "diverged: %s" m

let test_simpoint_determinism () =
  let prog = (Workloads.Suite.find "sjeng_like").program ~scale:2 in
  let run () =
    let m = Nemu.Mach.create () in
    Nemu.Mach.load_program m prog;
    let e = Nemu.Fast.create m in
    let bbv = Checkpoint.Bbv.create ~interval:5_000 in
    Checkpoint.Bbv.attach bbv e;
    let _ = Nemu.Fast.run e ~max_insns:100_000_000 in
    Checkpoint.Bbv.finish bbv;
    Checkpoint.Simpoint.select (Checkpoint.Bbv.vectors bbv) ~max_k:5
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun (x : Checkpoint.Simpoint.selection) (y : Checkpoint.Simpoint.selection) ->
      Alcotest.(check int) "same interval" x.sp_interval y.sp_interval)
    a b;
  (* weights sum to 1 *)
  let wsum = List.fold_left (fun acc s -> acc +. s.Checkpoint.Simpoint.sp_weight) 0.0 a in
  Alcotest.(check bool) "weights sum to ~1" true (abs_float (wsum -. 1.0) < 1e-9)

let test_kmeans_separates () =
  (* two obvious clusters of vectors must land in different clusters *)
  let va : Checkpoint.Bbv.vector = [ (100L, 1.0) ] in
  let vb : Checkpoint.Bbv.vector = [ (999L, 1.0) ] in
  let vectors = Array.of_list [ va; va; va; vb; vb; vb ] in
  let sel = Checkpoint.Simpoint.select vectors ~max_k:2 in
  Alcotest.(check int) "two representatives" 2 (List.length sel);
  let idx = List.map (fun s -> s.Checkpoint.Simpoint.sp_interval) sel in
  Alcotest.(check bool) "one from each cluster" true
    (List.exists (fun i -> i < 3) idx && List.exists (fun i -> i >= 3) idx)

(* --- BBV golden pins ---------------------------------------------------- *)

(* [Sampled.profile]'s vectors and their SimPoint selection for fixed
   (workload, scale, interval, instruction budget) cases, recorded from
   the profiler that counted each edge in a hash table keyed by its
   source pc.  The per-site counters must reproduce them exactly: the
   digest covers every (pc, frequency) pair in list order, because
   [Simpoint.project] sums in that order.  The cases cover paging and
   its flushes (vm_kernel), U/S/M round trips (user_mode), a
   timer-armed spin cut by the budget (timer_interrupts; standalone
   NEMU never advances mtime, so no interrupt fires), an interval
   shorter than any block, a budget that ends mid-interval so
   [Bbv.finish] closes a partial one, a kernel with more blocks than
   the harvest table has buckets, and the perfbench sampled kernel. *)
let bbv_digest (vectors : Checkpoint.Bbv.vector array) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun v ->
      List.iter (fun (pc, f) -> Printf.bprintf b "%Lx:%h;" pc f) v;
      Buffer.add_char b '|')
    vectors;
  Digest.to_hex (Digest.string (Buffer.contents b))

let selection_string sel =
  sel
  |> List.map (fun (s : Checkpoint.Simpoint.selection) ->
         Printf.sprintf "%d:%h" s.sp_interval s.sp_weight)
  |> String.concat " "

let bbv_golden (prog, interval, max_insns, max_k, n_vectors, digest, sel) () =
  let vectors, _ = Checkpoint.Sampled.profile ~interval ~max_insns (prog ()) in
  Alcotest.(check int) "intervals" n_vectors (Array.length vectors);
  Alcotest.(check string) "vector digest" digest (bbv_digest vectors);
  Alcotest.(check string) "SimPoint selection" sel
    (selection_string (Checkpoint.Simpoint.select vectors ~max_k))

let workload name ~scale () =
  let w =
    List.find
      (fun (w : Workloads.Wl_common.t) -> w.wl_name = name)
      (Workloads.Suite.all @ Workloads.Suite.system)
  in
  w.program ~scale

(* [sites] distinct branch terminators run [rounds] times: more blocks
   than the harvest table's 1,024 starting buckets, so the table
   resizes and buckets collide, and the vectors' list order depends on
   the order the blocks are inserted in, not on their pcs alone. *)
let many_sites ~sites ~rounds () =
  let open Riscv.Asm in
  let addi rd rs imm = i (Riscv.Insn.Op_imm (ADD, rd, rs, imm)) in
  assemble
    ([ li s1 0L; li s5 (Int64.of_int rounds); label "top" ]
    @ List.concat
        (List.init sites (fun _ ->
             [ addi s4 s4 1L; i (Riscv.Insn.Branch (BEQ, zero, s5, 8L)) ]))
    @ [ addi s1 s1 1L; bge s1 s5 "done"; j "top"; label "done" ]
    @ Workloads.Wl_common.exit_with s1)

let bbv_goldens =
  [
    ( `Quick, "mcf_like s20 interval 5000",
      (workload "mcf_like" ~scale:20, 5_000, 100_000_000, 5, 256,
       "45b3e035aff5962920e485d54907d1be",
       "0:0x1.6cp-2 91:0x1p-8 92:0x1.2p-1 116:0x1.3p-4 255:0x1p-8") );
    ( `Quick, "coremark_like s10 interval 5000",
      (workload "coremark_like" ~scale:10, 5_000, 100_000_000, 5, 26,
       "958ef971a656b58caca9b88a5843e31c",
       "11:0x1.89d89d89d89d9p-3 12:0x1.d89d89d89d89ep-3 \
        13:0x1.89d89d89d89d9p-3 14:0x1.89d89d89d89d9p-3 \
        15:0x1.89d89d89d89d9p-3") );
    ( `Quick, "bwaves_like s4 interval 7000",
      (workload "bwaves_like" ~scale:4, 7_000, 100_000_000, 5, 29,
       "c2613d2bfc5eac50ecb9c98c66c8a1f0",
       "0:0x1.a7b9611a7b961p-3 6:0x1.1a7b9611a7b96p-5 \
        7:0x1.3dcb08d3dcb09p-1 11:0x1.a7b9611a7b961p-4 \
        28:0x1.1a7b9611a7b96p-5") );
    ( `Quick, "vm_kernel s4 interval 3000",
      (workload "vm_kernel" ~scale:4, 3_000, 100_000_000, 5, 4,
       "b6956066ece3c26685f14818c561c9c1", "0:0x1p-1 2:0x1p-2 3:0x1p-2") );
    ( `Quick, "user_mode s4 interval 2000",
      (workload "user_mode" ~scale:4, 2_000, 100_000_000, 5, 5,
       "f5b0b6ff7df4a46f27449815fc803812",
       "0:0x1.3333333333333p-1 3:0x1.999999999999ap-3 \
        4:0x1.999999999999ap-3") );
    ( `Quick, "timer_interrupts s4 interval 2000, 20000 instructions",
      (workload "timer_interrupts" ~scale:4, 2_000, 20_000, 5, 10,
       "31e1429fe29d39e263f8e89276e1c3d6", "0:0x1p+0") );
    ( `Quick, "coremark_like s1 interval 3 (shorter than a block)",
      (workload "coremark_like" ~scale:1, 3, 100_000_000, 5, 2375,
       "5e874ee843aa062327cf807507c5cc85",
       "0:0x1.d43ccb134b584p-3 256:0x1.3065c0d5dab47p-3 \
        514:0x1.18af0cd3b2d2ap-2 516:0x1.74853a506933ep-3 \
        1678:0x1.557a201f0b1a3p-3") );
    ( `Quick, "sjeng_like s1 interval 5000, 12345 instructions (partial last)",
      (workload "sjeng_like" ~scale:1, 5_000, 12_345, 5, 3,
       "4966bf3adc4fe5f1a2ec0daa5e91748d",
       "0:0x1.5555555555555p-2 1:0x1.5555555555555p-2 \
        2:0x1.5555555555555p-2") );
    ( `Quick, "3000 branch sites interval 25000",
      (many_sites ~sites:3000 ~rounds:20, 25_000, 100_000_000, 5, 5,
       "be950e4462dfa7b2f47b0a6a4ed9a592",
       "0:0x1.999999999999ap-3 1:0x1.999999999999ap-3 \
        2:0x1.999999999999ap-3 3:0x1.999999999999ap-3 \
        4:0x1.999999999999ap-3") );
    ( `Slow, "mcf_like s600 interval 100000 (perfbench sampled)",
      (workload "mcf_like" ~scale:600, 100_000, 200_000_000, 8, 251,
       "bcbbedcfd5598806df323887fed33881",
       "0:0x1.05197f7d73404p-6 4:0x1.05197f7d73404p-8 \
        5:0x1.05197f7d73404p-8 6:0x1.05197f7d73404p-8 \
        7:0x1.b89b0723b27c7p-2 8:0x1.1360e4764f8dcp-1 \
        250:0x1.05197f7d73404p-8") );
  ]

(* --- allocation budget: BBV profiling's minor words per instruction --- *)

(* Minor words of [Bbv.attach] + [Fast.run] on mcf_like s20 (1.28M
   instructions, 13 intervals of 100,000) per retired instruction.
   The count repeats exactly.  Edges bump a counter cell and harvests
   run only at boundaries, so it reads 0.0059; counting each edge in a
   hash table keyed by a boxed pc read 0.3645.  A change that lowers
   the count must lower the budget in the same change. *)
let test_profile_alloc_budget () =
  let prog = (Workloads.Suite.find "mcf_like").program ~scale:20 in
  let m = Nemu.Mach.create () in
  Nemu.Mach.load_program m prog;
  let engine = Nemu.Fast.create m in
  let bbv = Checkpoint.Bbv.create ~interval:100_000 in
  let w0 = Gc.minor_words () in
  Checkpoint.Bbv.attach bbv engine;
  let n = Nemu.Fast.run engine ~max_insns:100_000_000 in
  let w = (Gc.minor_words () -. w0) /. float_of_int n in
  let budget = 0.006 in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f words/insn <= budget %.3f" w budget)
    true (w <= budget)

let test_sampled_accuracy () =
  (* weighted sampled IPC close to the full-run IPC *)
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:3 in
  let ipc, results, stats =
    Checkpoint.Sampled.estimate ~interval:8_000 ~max_k:5 ~warmup:2_000
      ~measure:4_000 Xiangshan.Config.yqh prog
  in
  Alcotest.(check bool) "selected some checkpoints" true (stats.gen_selected > 0);
  Alcotest.(check bool) "all samples measured" true
    (List.for_all (fun (r : Checkpoint.Sampled.sample_result) -> r.sr_cycles > 0) results);
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  let _ = Xiangshan.Soc.run ~max_cycles:100_000_000 soc in
  let full = Xiangshan.Core.ipc soc.Xiangshan.Soc.cores.(0) in
  let dev = abs_float (ipc -. full) /. full in
  Alcotest.(check bool)
    (Printf.sprintf "sampled %.3f vs full %.3f (dev %.1f%%)" ipc full
       (100.0 *. dev))
    true (dev < 0.25)

(* [restore_memory] blits each checkpoint page into its memory page.
   The reference here is the byte-at-a-time restore it replaced: every
   checkpoint the SimPoint flow captures for a small mcf_like run must
   leave a fresh SoC's memory with the same pages, byte for byte. *)
let pages_of (mem : Riscv.Memory.t) =
  let pages = ref [] in
  Riscv.Memory.iter_pages mem (fun i data ->
      pages := (i, Bytes.to_string data) :: !pages);
  List.sort compare !pages

let restore_bytewise (ck : Checkpoint.Arch_checkpoint.t) (mem : Riscv.Memory.t)
    =
  List.iter
    (fun (i, data) ->
      let base =
        Int64.add ck.Checkpoint.Arch_checkpoint.ck_mem_base
          (Int64.of_int (i lsl ck.Checkpoint.Arch_checkpoint.ck_page_bits))
      in
      Bytes.iteri
        (fun off c ->
          Riscv.Memory.write_u8 mem
            (Int64.add base (Int64.of_int off))
            (Char.code c))
        data)
    ck.Checkpoint.Arch_checkpoint.ck_pages

let test_blit_restore_matches_bytewise () =
  let prog = (Workloads.Suite.find "mcf_like").program ~scale:20 in
  let cks, _ =
    Checkpoint.Sampled.generate ~interval:20_000 ~max_k:4 prog
  in
  Alcotest.(check bool) "checkpoints captured" true (List.length cks > 1);
  List.iter
    (fun (sc : Checkpoint.Sampled.sampled_checkpoint) ->
      let ck = sc.Checkpoint.Sampled.sc_checkpoint in
      let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
      Checkpoint.Arch_checkpoint.restore_soc ck soc;
      let reference = Xiangshan.Soc.create Xiangshan.Config.yqh in
      restore_bytewise ck reference.Xiangshan.Soc.plat.Riscv.Platform.mem;
      let got = pages_of soc.Xiangshan.Soc.plat.Riscv.Platform.mem
      and want = pages_of reference.Xiangshan.Soc.plat.Riscv.Platform.mem in
      Alcotest.(check int)
        (Printf.sprintf "interval %d: pages" sc.Checkpoint.Sampled.sc_index)
        (List.length want) (List.length got);
      Alcotest.(check bool)
        (Printf.sprintf "interval %d: bytes" sc.Checkpoint.Sampled.sc_index)
        true (got = want))
    cks

let tests =
  [
    Alcotest.test_case "capture/restore round-trips" `Slow test_roundtrip_iss_dut;
    Alcotest.test_case "serialisation" `Quick test_serialisation;
    Alcotest.test_case "SimPoint determinism" `Slow test_simpoint_determinism;
    Alcotest.test_case "k-means separates clusters" `Quick test_kmeans_separates;
    Alcotest.test_case "sampled-IPC accuracy (paper: 5-10%)" `Slow
      test_sampled_accuracy;
    Alcotest.test_case "BBV profiling allocation budget" `Quick
      test_profile_alloc_budget;
  ]
  @ List.map
      (fun (speed, name, case) ->
        Alcotest.test_case ("BBV golden: " ^ name) speed (bbv_golden case))
      bbv_goldens
  @ [
      Alcotest.test_case "page-blit restore = byte-wise restore" `Slow
        test_blit_restore_matches_bytewise;
    ]
