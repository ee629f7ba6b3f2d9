(* Golden commit streams: every field of every DUT commit probe and
   every REF commit, in order, pinned to an MD5.

   Each case co-simulates one program to its verdict under one REF
   backend, tees each DUT probe (through the [on_commit] sink) and each
   REF commit (by wrapping the REF's [step]) into one text stream, and
   compares the stream's digest and the final [commits_checked]
   against values recorded from an earlier build.  A change to how
   commits are carried -- records, slots, counters -- must leave every
   case unchanged. *)

let opt f = function Some x -> f x | None -> "-"

let show_dut (p : Xiangshan.Probe.commit) =
  let acc present value =
    if present then
      Printf.sprintf "%Lx,%d,%Lx,%d" p.Xiangshan.Probe.p_mem_paddr
        p.Xiangshan.Probe.p_mem_size value p.Xiangshan.Probe.p_mem_cycle
    else "-"
  in
  Printf.sprintf "D %d %d %Lx %s %s %Lx %s %s %s %s %b %s %b %d"
    p.Xiangshan.Probe.p_hartid p.Xiangshan.Probe.p_cycle
    p.Xiangshan.Probe.p_pc
    (Riscv.Insn.show p.Xiangshan.Probe.p_insn)
    (opt Riscv.Insn.show p.Xiangshan.Probe.p_second)
    p.Xiangshan.Probe.p_next_pc
    (opt
       (fun (e, tval) -> Printf.sprintf "%d:%Lx" (Riscv.Trap.exc_code e) tval)
       p.Xiangshan.Probe.p_trap)
    (opt
       (fun i -> string_of_int (Riscv.Trap.irq_code i))
       p.Xiangshan.Probe.p_interrupt)
    (acc p.Xiangshan.Probe.p_has_load p.Xiangshan.Probe.p_load_value)
    (acc p.Xiangshan.Probe.p_has_store p.Xiangshan.Probe.p_store_value)
    p.Xiangshan.Probe.p_sc_failed
    (opt (fun (a, v) -> Printf.sprintf "%x=%Lx" a v) p.Xiangshan.Probe.p_csr_read)
    p.Xiangshan.Probe.p_mmio p.Xiangshan.Probe.p_instret

let show_ref hart (c : Minjie.Ref_model.commit) =
  let acc (m : Minjie.Ref_model.mem_access) =
    Printf.sprintf "%Lx,%Lx,%d,%Lx" m.Minjie.Ref_model.vaddr
      m.Minjie.Ref_model.paddr m.Minjie.Ref_model.size m.Minjie.Ref_model.value
  in
  Printf.sprintf "R %d %Lx %s %Lx %s %s %s %s %b %s %b" hart
    c.Minjie.Ref_model.pc
    (Riscv.Insn.show c.Minjie.Ref_model.insn)
    c.Minjie.Ref_model.next_pc
    (opt
       (fun (t : Minjie.Ref_model.trap_info) ->
         Printf.sprintf "%d:%Lx"
           (Riscv.Trap.exc_code t.Minjie.Ref_model.exc)
           t.Minjie.Ref_model.tval)
       c.Minjie.Ref_model.trap)
    (opt (fun i -> string_of_int (Riscv.Trap.irq_code i)) c.Minjie.Ref_model.interrupt)
    (opt acc c.Minjie.Ref_model.load)
    (opt acc c.Minjie.Ref_model.store)
    c.Minjie.Ref_model.sc_failed
    (opt (fun (a, v) -> Printf.sprintf "%x=%Lx" a v) c.Minjie.Ref_model.csr_read)
    c.Minjie.Ref_model.mmio

(* A running MD5 over a line stream: the pending text is folded into
   the digest every 64 KiB, so a long run needs no long string. *)
type stream = { buf : Buffer.t; mutable digest : string }

let add s line =
  Buffer.add_string s.buf line;
  Buffer.add_char s.buf '\n';
  if Buffer.length s.buf >= 65536 then begin
    s.digest <- Digest.string (s.digest ^ Buffer.contents s.buf);
    Buffer.clear s.buf
  end

let finish s = Digest.to_hex (Digest.string (s.digest ^ Buffer.contents s.buf))

(* Co-simulate [prog] under [ref_kind] to its verdict (or for
   [max_cycles]) and return the stream digest and [commits_checked]. *)
let stream_of ~max_cycles cfg ref_kind prog =
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  let dt = Minjie.Difftest.create ~ref_kind ~prog soc in
  let s = { buf = Buffer.create 65536; digest = "" } in
  Array.iter
    (fun (core : Xiangshan.Core.t) ->
      let p = core.Xiangshan.Core.probes in
      let prev = p.Xiangshan.Probe.on_commit in
      p.Xiangshan.Probe.on_commit <-
        (fun c ->
          add s (show_dut c);
          prev c))
    soc.Xiangshan.Soc.cores;
  let refs = Minjie.Difftest.refs dt in
  Array.iteri
    (fun hart (r : Minjie.Ref_model.t) ->
      refs.(hart) <-
        {
          r with
          Minjie.Ref_model.step =
            (fun () ->
              let res = r.Minjie.Ref_model.step () in
              (match res with
              | Minjie.Ref_model.Committed c -> add s (show_ref hart c)
              | Minjie.Ref_model.Exited -> add s (Printf.sprintf "X %d" hart));
              res);
        })
    refs;
  (match Minjie.Workflow.drive ~max_cycles dt with
  | Minjie.Difftest.Finished _ | Minjie.Difftest.Running -> ()
  | Minjie.Difftest.Failed f ->
      Alcotest.failf "failed: %s" (Minjie.Rule.string_of_failure f));
  (finish s, Minjie.Difftest.commits_checked dt)

(* (case, configuration, program, cycle cap, digest, commits checked).
   The digests are the same under both REF backends: they retire the
   same commit records.  [mcf_like] is capped (its verdict is half a
   million commits away); the others run to their exit.  smp_lrsc
   covers fused pairs and SC failures, vm_kernel traps and the
   page-fault rule, timer_interrupts forced interrupts, user_mode
   delegated traps across three privilege levels. *)
let cases =
  [
    ( "YQH coremark_like",
      Xiangshan.Config.yqh,
      (fun () -> (Workloads.Suite.find "coremark_like").program ~scale:1),
      5_000_000,
      "62ae25f4b1f8488927ca7190baf7f6cd",
      15208 );
    ( "YQH mcf_like",
      Xiangshan.Config.yqh,
      (fun () -> (Workloads.Suite.find "mcf_like").program ~scale:1),
      100_000,
      "3836eab636817d703b8f6667c78309a4",
      110580 );
    ( "NH smp_lrsc",
      Xiangshan.Config.nh,
      (fun () -> Workloads.Smp.lrsc_contend ~scale:2),
      5_000_000,
      "1652ea52f6e58bd0dbb9e4fab07dd042",
      2631 );
    ( "NH vm_kernel",
      Xiangshan.Config.nh_single,
      (fun () -> Workloads.Vm_kernel.program ~scale:2 ()),
      5_000_000,
      "0eecec590749e39bf233afa842943b8d",
      8614 );
    ( "NH timer_interrupts",
      Xiangshan.Config.nh_single,
      (fun () -> Workloads.Timer.program ~scale:2),
      5_000_000,
      "d3a14113fb6cbc4ceac7b2231ea8f2ae",
      1977 );
    ( "NH user_mode",
      Xiangshan.Config.nh_single,
      (fun () -> Workloads.User_mode.program ~scale:2 ()),
      5_000_000,
      "21d4eade2fbc5e9028badf53b822b22f",
      8910 );
  ]

let pin_case (name, cfg, prog, max_cycles, digest, commits) =
  List.map
    (fun kind ->
      let name = name ^ ", " ^ Minjie.Ref_model.kind_name kind ^ " REF" in
      Alcotest.test_case name `Slow (fun () ->
          let d, n = stream_of ~max_cycles cfg kind (prog ()) in
          Alcotest.(check string) (name ^ ": stream digest") digest d;
          Alcotest.(check int) (name ^ ": commits checked") commits n))
    [ Minjie.Ref_model.Iss; Minjie.Ref_model.Nemu ]

(* DiffTest compares a hart's state only in a cycle that moved its
   DUT epoch or retired on it.  Under each pinned program and both
   REFs, the full compare, run here after every tick, must agree with
   that verdict in every cycle, and the run must include cycles whose
   compare was skipped. *)
let shadow_case (name, cfg, prog, max_cycles, _, commits) =
  List.map
    (fun kind ->
      let name =
        "shadow compare agrees, " ^ name ^ ", "
        ^ Minjie.Ref_model.kind_name kind ^ " REF"
      in
      Alcotest.test_case name `Slow (fun () ->
          let prog = prog () in
          let soc = Xiangshan.Soc.create cfg in
          Xiangshan.Soc.load_program soc prog;
          let dt = Minjie.Difftest.create ~ref_kind:kind ~prog soc in
          let refs = Minjie.Difftest.refs dt in
          let cores = soc.Xiangshan.Soc.cores in
          let last_epoch = Array.make (Array.length cores) (-1) in
          let skipped = ref 0 and cycles = ref 0 in
          while
            Minjie.Difftest.status dt = Minjie.Difftest.Running
            && !cycles < max_cycles
          do
            Minjie.Difftest.tick dt;
            incr cycles;
            Array.iteri
              (fun h (core : Xiangshan.Core.t) ->
                let arch = core.Xiangshan.Core.arch in
                let epoch = arch.Riscv.Arch_state.epoch in
                if core.Xiangshan.Core.n_slots = 0 && epoch = last_epoch.(h)
                then incr skipped;
                last_epoch.(h) <- epoch;
                match refs.(h).Minjie.Ref_model.diff_against arch with
                | None -> ()
                | Some msg ->
                    Alcotest.failf "cycle %d, hart %d: %s" soc.Xiangshan.Soc.now
                      h msg)
              cores
          done;
          (match Minjie.Difftest.status dt with
          | Minjie.Difftest.Finished _ | Minjie.Difftest.Running -> ()
          | Minjie.Difftest.Failed f ->
              Alcotest.failf "failed: %s" (Minjie.Rule.string_of_failure f));
          Alcotest.(check int) "commits checked" commits
            (Minjie.Difftest.commits_checked dt);
          Alcotest.(check bool)
            (Printf.sprintf "%d skipped hart-cycles" !skipped)
            true (!skipped > 0)))
    [ Minjie.Ref_model.Iss; Minjie.Ref_model.Nemu ]

(* A sink that keeps probes must keep copies: the core refills the same
   few slot records every cycle.  The kept copies carry every commit's
   own values (minstret counts up by one per retired instruction), and
   the records the core handed out are no more than its slots. *)
let test_kept_probes_are_copies () =
  let cfg = Xiangshan.Config.nh_single in
  let prog = Workloads.Smp.lrsc_contend ~scale:2 in
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  let core = soc.Xiangshan.Soc.cores.(0) in
  let kept = ref [] and handed = ref [] and live = ref [] in
  core.Xiangshan.Core.probes.Xiangshan.Probe.on_commit <-
    (fun p ->
      kept := Xiangshan.Probe.copy p :: !kept;
      live := show_dut p :: !live;
      if not (List.memq p !handed) then handed := p :: !handed);
  ignore (Xiangshan.Soc.run ~max_cycles:200_000 soc);
  let kept = List.rev !kept in
  Alcotest.(check bool) "commits seen" true (List.length kept > 1000);
  Alcotest.(check (list string))
    "a kept copy reads as the slot did when it was filled" (List.rev !live)
    (List.map show_dut kept);
  ignore
    (List.fold_left
       (fun prev (p : Xiangshan.Probe.commit) ->
         let n = p.Xiangshan.Probe.p_instret in
         if n <= prev then
           Alcotest.failf "kept commit at cycle %d: minstret %d after %d"
             p.Xiangshan.Probe.p_cycle n prev;
         n)
       0 kept);
  Alcotest.(check bool)
    (Printf.sprintf "%d slot records handed out <= %d slots"
       (List.length !handed) cfg.Xiangshan.Config.decode_width)
    true
    (List.length !handed <= cfg.Xiangshan.Config.decode_width)

(* A REF reports every step into the same record, so the commit of a
   fused pair's first instruction is gone once the REF has stepped the
   second; the post rules, which run after both steps, must still see
   the first.  A rule added on the fly checks the pc it is handed
   against the probe's on every commit of a run with fused pairs. *)
let test_post_rules_see_first_of_pair () =
  let prog = Workloads.Smp.lrsc_contend ~scale:2 in
  List.iter
    (fun ref_kind ->
      let soc = Xiangshan.Soc.create Xiangshan.Config.nh in
      Xiangshan.Soc.load_program soc prog;
      let fused = ref 0 in
      let same_pc =
        Minjie.Rule.make ~name:"post-sees-probe-pc"
          ~descr:"the REF commit handed to a post rule is the probe's"
          ~post:(fun _ ~hart:_ (p : Xiangshan.Probe.commit) c ->
            if p.Xiangshan.Probe.p_second <> None then incr fused;
            if c.Minjie.Ref_model.pc = p.Xiangshan.Probe.p_pc then
              Minjie.Rule.Pass
            else
              Minjie.Rule.Fail
                (Printf.sprintf "post rule saw the REF at 0x%Lx"
                   c.Minjie.Ref_model.pc))
          ()
      in
      let dt =
        Minjie.Difftest.create
          ~rules:(Minjie.Rules.standard () @ [ same_pc ])
          ~ref_kind ~prog soc
      in
      (match Minjie.Workflow.drive ~max_cycles:5_000_000 dt with
      | Minjie.Difftest.Finished _ -> ()
      | Minjie.Difftest.Failed f ->
          Alcotest.failf "%s REF: %s" (Minjie.Ref_model.kind_name ref_kind)
            (Minjie.Rule.string_of_failure f)
      | Minjie.Difftest.Running -> Alcotest.fail "no verdict");
      Alcotest.(check bool) "fused pairs checked" true (!fused > 0))
    [ Minjie.Ref_model.Iss; Minjie.Ref_model.Nemu ]

let tests =
  List.concat_map pin_case cases
  @ [
      Alcotest.test_case "a sink that keeps probes keeps copies" `Quick
        test_kept_probes_are_copies;
      Alcotest.test_case "post rules see a fused pair's first REF commit"
        `Quick test_post_rules_see_first_of_pair;
    ]
  @ List.concat_map shadow_case cases
