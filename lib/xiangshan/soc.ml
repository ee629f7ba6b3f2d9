(* SoC wiring: cores, cache tree, DRAM model, CLINT, and the cycle
   loop.

   YQH: core -> (L1I, L1D, PTW) -> L2 -> DRAM
   NH:  2 cores, each -> private L2 -> shared L3 -> DRAM

   The shared level's coherence directory generates the Probe traffic
   between cores; the SoC also propagates store drains to invalidate
   sibling LR reservations. *)

open Riscv

type t = {
  cfg : Config.t;
  plat : Platform.t;
  cores : Core.t array;
  l2s : Softmem.Cache.t array;
  l3 : Softmem.Cache.t option;
  dram : Softmem.Dram.t;
  mutable now : int;
  mutable event_sink : Softmem.Event.sink;
  mutable fault_hooks : (t -> unit) list;
  nodes : Softmem.Cache.t array; (* every cache node, collected once *)
  effects : Core.effects array; (* per-core plan slot of the running tick *)
}

let line_shift = 6

let create ?(dram_size = 64 * 1024 * 1024) ?phase_order (cfg : Config.t) : t =
  let plat = Platform.create ~dram_size () in
  let backing = plat.Platform.mem in
  let dram =
    Softmem.Dram.create
      (match cfg.dram with
      | Config.Fixed_amat n -> Softmem.Dram.Fixed_amat n
      | Config.Ddr4_1600 -> Softmem.Dram.ddr4_1600
      | Config.Ddr4_2400 -> Softmem.Dram.ddr4_2400)
  in
  let mk name size_kb ways lat =
    Softmem.Cache.create ~name ~size_bytes:(size_kb * 1024) ~ways
      ~line_shift ~hit_latency:lat ~backing ()
  in
  let l3 =
    if cfg.l3_kb > 0 then begin
      let l3 = mk "l3" cfg.l3_kb cfg.l3_ways 30 in
      Softmem.Cache.set_dram l3 dram;
      Some l3
    end
    else None
  in
  let l2s =
    Array.init cfg.n_cores (fun i ->
        let l2 = mk (Printf.sprintf "l2.%d" i) cfg.l2_kb cfg.l2_ways 12 in
        (match l3 with
        | Some l3 -> Softmem.Cache.set_parent l2 l3
        | None -> Softmem.Cache.set_dram l2 dram);
        l2)
  in
  let cores =
    Array.init cfg.n_cores (fun i ->
        let l1i = mk (Printf.sprintf "l1i.%d" i) cfg.l1i_kb cfg.l1i_ways 2 in
        let l1d = mk (Printf.sprintf "l1d.%d" i) cfg.l1d_kb cfg.l1d_ways 2 in
        let ptw = mk (Printf.sprintf "ptw.%d" i) 4 2 1 in
        Softmem.Cache.set_parent l1i l2s.(i);
        Softmem.Cache.set_parent l1d l2s.(i);
        Softmem.Cache.set_parent ptw l2s.(i);
        (* observational MSHR-saturation probe on the D-side *)
        Softmem.Cache.set_mshrs l1d cfg.mshrs;
        Core.create ?phase_order cfg ~hartid:i ~plat ~l1i ~l1d ~ptw_port:ptw)
  in
  let nodes = ref [] in
  (match l3 with
  | Some l3 -> Softmem.Cache.iter_tree l3 (fun n -> nodes := n :: !nodes)
  | None ->
      Array.iter
        (fun l2 -> Softmem.Cache.iter_tree l2 (fun n -> nodes := n :: !nodes))
        l2s);
  let t =
    {
      cfg;
      plat;
      cores;
      l2s;
      l3;
      dram;
      now = 0;
      event_sink = Softmem.Event.null_sink;
      fault_hooks = [];
      nodes = Array.of_list (List.rev !nodes);
      effects = Array.map (fun (c : Core.t) -> c.Core.plan) cores;
    }
  in
  (* store drains invalidate sibling reservations *)
  Array.iteri
    (fun i core ->
      core.Core.on_store_drain <-
        (fun paddr _size ->
          Array.iteri
            (fun j other ->
              if i <> j then Lsu.snoop_invalidate other.Core.lsu ~paddr)
            cores))
    cores;
  t

(* Install an event sink on every cache node. *)
let set_event_sink (t : t) (sink : Softmem.Event.sink) =
  t.event_sink <- sink;
  Array.iter (fun (n : Softmem.Cache.t) -> n.sink <- sink) t.nodes

(* Every copy-on-write table of the SoC in a fixed order: the cache
   tree node by node, then each core's predictor and TLB tables. *)
let tables (t : t) =
  let roots = match t.l3 with Some l3 -> [ l3 ] | None -> Array.to_list t.l2s in
  List.concat_map Softmem.Cache.tables roots
  @ List.concat_map
      (fun (c : Core.t) -> Bpu.tables c.Core.bpu @ Tlb.tables c.Core.tlb)
      (Array.to_list t.cores)

let load_program (t : t) (p : Asm.program) =
  Asm.load p t.plat.Platform.mem;
  Array.iter (fun c -> Core.set_boot_pc c p.Asm.entry) t.cores

let add_fault_hook (t : t) f = t.fault_hooks <- t.fault_hooks @ [ f ]

let rec fire_hooks t = function
  | [] -> ()
  | f :: rest ->
      f t;
      fire_hooks t rest

(* One SoC clock, two-phase: advance the shared clock domain, let
   every core plan its cycle against the frozen snapshot (phase 1),
   fire the fault hooks at the effect boundary, then apply all plans
   in hart order (phase 2).  Hooks mutating pipeline structures
   between the phases are exactly the hazard the appliers revalidate
   against (e.g. Iq.steal_waiting vs a pre-selected issue).  Loops, not
   iterators: the tick allocates nothing of its own. *)
let tick (t : t) =
  t.now <- t.now + 1;
  Platform.Clint.tick t.plat.Platform.clint 1;
  for i = 0 to Array.length t.nodes - 1 do
    Softmem.Cache.set_now t.nodes.(i) t.now
  done;
  for i = 0 to Array.length t.cores - 1 do
    t.effects.(i) <- Core.step t.cores.(i)
  done;
  fire_hooks t t.fault_hooks;
  for i = 0 to Array.length t.cores - 1 do
    Core.apply t.cores.(i) t.effects.(i)
  done

let exited (t : t) = Platform.exited t.plat

let exit_code (t : t) = Platform.exit_code t.plat

let attach_tracers ?(capacity = 4096) (t : t) =
  Array.map
    (fun (core : Core.t) ->
      let tr = Perf.Pipetrace.create ~capacity () in
      Core.set_tracer core (Some tr);
      tr)
    t.cores

let counter_snapshot (t : t) ~hartid = Core.counter_snapshot t.cores.(hartid)

(* Run until exit, a cycle budget, or [stop] returns true. *)
let run ?(max_cycles = 100_000_000) ?(stop = fun () -> false) (t : t) : int =
  let start = t.now in
  while (not (exited t)) && t.now - start < max_cycles && not (stop ()) do
    tick t
  done;
  t.now - start

(* Inject the §IV-C L2 MSHR arbitration bug on core [i]'s L2. *)
let inject_l2_race_bug (t : t) ~core =
  t.l2s.(core).Softmem.Cache.bug_probe_race <- true

let inject_skip_probe_bug (t : t) =
  match t.l3 with
  | Some l3 -> l3.Softmem.Cache.bug_skip_probe <- true
  | None -> Array.iter (fun l2 -> l2.Softmem.Cache.bug_skip_probe <- true) t.l2s
