(* Fault registry + campaign driver: the harness that PROVES the
   verification stack catches injected bugs (the robustness
   counterpart of the clean-run tests in test_difftest.ml). *)

let test_registry_well_formed () =
  let names = Minjie.Fault.names () in
  Alcotest.(check bool)
    (Printf.sprintf "at least 12 faults (%d)" (List.length names))
    true
    (List.length names >= 12);
  Alcotest.(check int) "names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (f.Minjie.Fault.f_name ^ " has expected rules")
        true
        (f.Minjie.Fault.f_expected_rules <> []);
      (* every workload the registry references must resolve *)
      ignore (Minjie.Campaign.find_workload f.Minjie.Fault.f_workload))
    Minjie.Fault.all

let test_registry_covers_every_layer () =
  let layers =
    List.sort_uniq compare
      (List.map (fun f -> f.Minjie.Fault.f_layer) Minjie.Fault.all)
  in
  List.iter
    (fun l ->
      Alcotest.(check bool) ("layer " ^ l) true (List.mem l layers))
    [ "bpu"; "rename"; "rob"; "iq"; "lsu"; "tlb"; "cache"; "dram"; "csr" ]

let test_find_unknown_raises () =
  Alcotest.check_raises "unknown fault"
    (Invalid_argument "Fault.find: unknown fault \"no-such-fault\"")
    (fun () -> ignore (Minjie.Fault.find "no-such-fault"))

let run_cell name =
  Minjie.Campaign.run_cell ~fault:(Minjie.Fault.find name) ~seed:1 ()

let test_cell_detects_and_replays () =
  (* a full campaign cell end to end on the fastest fault: detection
     by an expected rule, latency accounted, replay within two
     snapshot intervals *)
  let c = run_cell "cache-skip-probe" in
  Alcotest.(check bool) "detected" true c.Minjie.Campaign.c_detected;
  Alcotest.(check bool)
    ("rule expected: " ^ c.Minjie.Campaign.c_rule)
    true c.Minjie.Campaign.c_rule_expected;
  Alcotest.(check bool) "latency accounted" true
    (c.Minjie.Campaign.c_latency_cycles >= 0);
  Alcotest.(check bool) "commits accounted" true
    (c.Minjie.Campaign.c_commits >= 0);
  Alcotest.(check bool) "replayed within two intervals" true
    c.Minjie.Campaign.c_replay_within;
  Alcotest.(check bool) "cell ok" true c.Minjie.Campaign.c_ok

let test_hang_watchdog_fires () =
  (* the injected deadlock must be caught by the hang watchdog, and
     the failure must carry the stall site *)
  let c = run_cell "iq-lost-uop" in
  Alcotest.(check string) "caught by the hang watchdog" "hang-watchdog"
    c.Minjie.Campaign.c_rule;
  Alcotest.(check bool)
    ("stall site named: " ^ c.Minjie.Campaign.c_msg)
    true
    (let msg = c.Minjie.Campaign.c_msg in
     let has sub =
       let n = String.length sub and m = String.length msg in
       let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
       go 0
     in
     has "stall site");
  Alcotest.(check bool) "deadlock reproduces in replay" true
    c.Minjie.Campaign.c_replay_within

let test_cells_are_seed_deterministic () =
  let a = run_cell "csr-mtvec-corrupt" and b = run_cell "csr-mtvec-corrupt" in
  Alcotest.(check int) "same failure cycle" a.Minjie.Campaign.c_failure_cycle
    b.Minjie.Campaign.c_failure_cycle;
  Alcotest.(check string) "same rule" a.Minjie.Campaign.c_rule
    b.Minjie.Campaign.c_rule;
  Alcotest.(check string) "same message" a.Minjie.Campaign.c_msg
    b.Minjie.Campaign.c_msg

(* csr-mtvec-corrupt's hook writes mtvec directly, moving no epoch,
   in cycle 2000 of timer_interrupts, which retires nothing then: a
   SoC with a fault hook is compared every cycle, so the write is
   caught in its own cycle (recorded when every cycle was compared). *)
let test_hook_write_caught_in_its_cycle () =
  let c = run_cell "csr-mtvec-corrupt" in
  Alcotest.(check string) "rule" "state-compare" c.Minjie.Campaign.c_rule;
  Alcotest.(check int) "failure cycle" 2000 c.Minjie.Campaign.c_failure_cycle;
  Alcotest.(check int) "latency" 0 c.Minjie.Campaign.c_latency_cycles;
  Alcotest.(check int) "commits checked" 898 c.Minjie.Campaign.c_commits

let tests =
  [
    Alcotest.test_case "registry well-formed" `Quick test_registry_well_formed;
    Alcotest.test_case "registry spans every DUT layer" `Quick
      test_registry_covers_every_layer;
    Alcotest.test_case "unknown fault raises" `Quick test_find_unknown_raises;
    Alcotest.test_case "campaign cell detects + replays" `Slow
      test_cell_detects_and_replays;
    Alcotest.test_case "injected deadlock trips the hang watchdog" `Slow
      test_hang_watchdog_fires;
    Alcotest.test_case "cells are seed-deterministic" `Slow
      test_cells_are_seed_deterministic;
    Alcotest.test_case "a hook's direct CSR write is caught in its cycle"
      `Quick test_hook_write_caught_in_its_cycle;
  ]
