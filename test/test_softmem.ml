(* Cache hierarchy: hits/misses, inclusion, coherence probes, the
   permission scoreboard, and the DRAM models. *)

open Softmem

let base = Riscv.Platform.dram_base

let mk_two_core_tree () =
  let backing = Riscv.Memory.create ~base ~size:(1 lsl 22) () in
  let l2 =
    Cache.create ~name:"l2" ~size_bytes:(64 * 1024) ~ways:8 ~line_shift:6
      ~hit_latency:10 ~backing ()
  in
  Cache.set_dram l2 (Dram.create (Dram.Fixed_amat 100));
  let mk name =
    let c =
      Cache.create ~name ~size_bytes:4096 ~ways:4 ~line_shift:6 ~hit_latency:2
        ~backing ()
    in
    Cache.set_parent c l2;
    c
  in
  let a = mk "l1.a" and b = mk "l1.b" in
  (backing, l2, a, b)

let test_hit_miss_latency () =
  let _, l2, a, _ = mk_two_core_tree () in
  let v, lat1 = Cache.read a ~addr:base ~size:8 in
  Alcotest.(check int64) "initial zero" 0L v;
  (* miss goes through l2 and dram *)
  Alcotest.(check bool) (Printf.sprintf "miss lat %d" lat1) true (lat1 > 100);
  let _, lat2 = Cache.read a ~addr:(Int64.add base 8L) ~size:8 in
  Alcotest.(check int) "same-line hit" 2 lat2;
  let s = Cache.stats a in
  Alcotest.(check int) "accesses" 2 s.Cache.accesses;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  (* l2 hit on a second l1 miss to a neighbouring line already in l2?
     no -- different line; but re-reading through l2 after an l1
     eviction would hit. Check l2 counted one miss so far *)
  Alcotest.(check int) "l2 misses" 1 (Cache.stats l2).Cache.misses

let test_write_through_and_readback () =
  let backing, _, a, b = mk_two_core_tree () in
  let _ = Cache.write a ~addr:base ~size:8 0xABCDL in
  Alcotest.(check int64) "backing updated" 0xABCDL
    (Riscv.Memory.read_u64 backing base);
  let v, _ = Cache.read b ~addr:base ~size:8 in
  Alcotest.(check int64) "other core sees it" 0xABCDL v

let test_coherence_probes () =
  let _, _, a, b = mk_two_core_tree () in
  (* A takes Trunk; B's read must probe A down to Branch *)
  let _ = Cache.write a ~addr:base ~size:8 1L in
  let p0 = (Cache.stats a).Cache.probes in
  let _ = Cache.read b ~addr:base ~size:8 in
  Alcotest.(check bool) "A was probed" true ((Cache.stats a).Cache.probes > p0);
  (* B writes: A must lose the line entirely *)
  let _ = Cache.write b ~addr:base ~size:8 2L in
  (* A re-reads: it must miss (line was invalidated) *)
  let m0 = (Cache.stats a).Cache.misses in
  let _ = Cache.read a ~addr:base ~size:8 in
  Alcotest.(check bool) "A missed after invalidation" true
    ((Cache.stats a).Cache.misses > m0)

let test_capacity_eviction () =
  let _, _, a, _ = mk_two_core_tree () in
  (* a is 4KB/4-way/64B = 16 sets; write 3x its capacity *)
  for i = 0 to 3 * 64 - 1 do
    ignore (Cache.write a ~addr:(Int64.add base (Int64.of_int (i * 64))) ~size:8 1L)
  done;
  Alcotest.(check bool) "evictions happened" true
    ((Cache.stats a).Cache.evictions > 0)

let test_scoreboard_clean_and_buggy () =
  (* clean traffic produces no violations *)
  let run ~bug =
    let _, l2, a, b = mk_two_core_tree () in
    let sb = Scoreboard.create ~node:"l2" ~children:[| "l1.a"; "l1.b" |] in
    let sink ev = Scoreboard.observe sb ev in
    Cache.iter_tree l2 (fun n -> n.Cache.sink <- sink);
    if bug then l2.Cache.bug_skip_probe <- true;
    let _ = Cache.read a ~addr:base ~size:8 in
    let _ = Cache.read b ~addr:base ~size:8 in
    let _ = Cache.write a ~addr:base ~size:8 1L in
    let _ = Cache.read b ~addr:base ~size:8 in
    let _ = Cache.write b ~addr:base ~size:8 2L in
    sb
  in
  Alcotest.(check bool) "clean protocol passes" true (Scoreboard.ok (run ~bug:false));
  Alcotest.(check bool) "skip-probe bug flagged" false
    (Scoreboard.ok (run ~bug:true))

(* The scoreboard against a plain model (a table of per-child
   permission arrays that never forgets a block): random event streams
   must raise the same violations, and the scoreboard must track
   exactly the blocks some child still holds. *)
let prop_scoreboard_model =
  let children = [| "l1.a"; "l1.b"; "l1.c" |] in
  let child_of name =
    if name = "l1.a" then 0 else if name = "l1.b" then 1 else 2
  in
  let gen_event =
    QCheck2.Gen.(
      map3
        (fun who block kind ->
          let addr = Int64.of_int (0x8000_0000 + (64 * block)) in
          let perm = [| Perm.Nothing; Perm.Branch; Perm.Trunk |].(kind mod 3) in
          if who = 3 then
            {
              Event.cycle = 0;
              node = "l2";
              child = kind mod 3;
              xact = Perm.Grant perm;
              addr;
            }
          else
            {
              Event.cycle = 0;
              node = children.(who);
              child = -1;
              xact = (if kind >= 3 then Perm.Release else Perm.Probe_ack perm);
              addr;
            })
        (int_bound 3) (int_bound 600) (int_bound 4))
  in
  QCheck2.Test.make ~count:200 ~name:"scoreboard vs model"
    QCheck2.Gen.(list_size (int_range 1 2000) gen_event)
    (fun evs ->
      let sb = Scoreboard.create ~node:"l2" ~children in
      let model : (int64, Perm.t array) Hashtbl.t = Hashtbl.create 64 in
      let entry a =
        match Hashtbl.find_opt model a with
        | Some e -> e
        | None ->
            let e = Array.make 3 Perm.Nothing in
            Hashtbl.replace model a e;
            e
      in
      let expected = ref 0 in
      List.iteri
        (fun cycle (ev : Event.t) ->
          let ev = { ev with Event.cycle } in
          Scoreboard.observe sb ev;
          match ev.xact with
          | Perm.Grant want ->
              let e = entry ev.addr in
              e.(ev.child) <- want;
              let count f =
                Array.fold_left (fun n p -> if f p then n + 1 else n) 0 e
              in
              let trunks = count (( = ) Perm.Trunk)
              and holders = count (( <> ) Perm.Nothing) in
              if trunks > 1 then incr expected;
              if trunks = 1 && holders > 1 then incr expected
          | Perm.Probe_ack to_perm -> (
              let e = entry ev.addr and child = child_of ev.node in
              match to_perm with
              | Perm.Nothing -> e.(child) <- Perm.Nothing
              | Perm.Branch ->
                  if e.(child) = Perm.Trunk then e.(child) <- Perm.Branch
              | Perm.Trunk -> ())
          | Perm.Release -> (entry ev.addr).(child_of ev.node) <- Perm.Nothing
          | Perm.Acquire _ | Perm.Probe _ -> ())
        evs;
      let held =
        Hashtbl.fold
          (fun _ e n ->
            if Array.exists (( <> ) Perm.Nothing) e then n + 1 else n)
          model 0
      in
      List.length (Scoreboard.violations sb) = !expected
      && Scoreboard.blocks_tracked sb = held)

let test_poison_injection () =
  (* the probed node captures the stale image: in a 2-level tree the
     probed node is the sibling L1 (in the full SoC it is the private
     L2 probed by the shared L3, as in §IV-C) *)
  let _, l2, a, b = mk_two_core_tree () in
  a.Cache.bug_probe_race <- true;
  (* A acquires a line (opening an in-flight window at l2), then B
     writes it while the window is open: stale capture *)
  Cache.iter_tree l2 (fun n -> Cache.set_now n 100);
  let _ = Cache.write a ~addr:base ~size:8 0x11L in
  (* same cycle: B steals the line (probe hits the in-flight window) *)
  let _ = Cache.write b ~addr:base ~size:8 0x22L in
  (* A re-reads through the poisoned l2: gets the stale pre-B value *)
  let v, _ = Cache.read a ~addr:base ~size:8 in
  Alcotest.(check int64) "stale grant" 0x11L v;
  (* without the bug the value is current *)
  let _, l2', a', b' = mk_two_core_tree () in
  Cache.iter_tree l2' (fun n -> Cache.set_now n 100);
  let _ = Cache.write a' ~addr:base ~size:8 0x11L in
  let _ = Cache.write b' ~addr:base ~size:8 0x22L in
  let v', _ = Cache.read a' ~addr:base ~size:8 in
  Alcotest.(check int64) "clean grant" 0x22L v'

let test_dram_models () =
  let fixed = Dram.create (Dram.Fixed_amat 90) in
  Alcotest.(check int) "fixed amat" 90 (Dram.access fixed ~now:0 ~addr:base);
  Alcotest.(check int) "fixed amat again" 90
    (Dram.access fixed ~now:1000 ~addr:(Int64.add base 0x100000L));
  let ddr = Dram.create Dram.ddr4_2400 in
  let first = Dram.access ddr ~now:0 ~addr:base in
  let second = Dram.access ddr ~now:1000 ~addr:base in
  Alcotest.(check bool)
    (Printf.sprintf "row hit (%d) cheaper than row miss (%d)" second first)
    true (second < first);
  (* bank queueing: back-to-back same-bank accesses serialise *)
  let ddr2 = Dram.create Dram.ddr4_2400 in
  let l1 = Dram.access ddr2 ~now:0 ~addr:base in
  let l2 = Dram.access ddr2 ~now:0 ~addr:base in
  Alcotest.(check bool) "queue delay" true (l2 > l1 - 20)

let tests =
  [
    Alcotest.test_case "hit/miss latency" `Quick test_hit_miss_latency;
    Alcotest.test_case "write-through visibility" `Quick
      test_write_through_and_readback;
    Alcotest.test_case "coherence probes" `Quick test_coherence_probes;
    Alcotest.test_case "capacity eviction" `Quick test_capacity_eviction;
    Alcotest.test_case "permission scoreboard" `Quick
      test_scoreboard_clean_and_buggy;
    QCheck_alcotest.to_alcotest prop_scoreboard_model;
    Alcotest.test_case "stale-grant fault injection" `Quick test_poison_injection;
    Alcotest.test_case "dram models" `Quick test_dram_models;
  ]
