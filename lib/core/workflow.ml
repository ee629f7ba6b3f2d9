(* "Put it all together" (§III-E, §IV-C): the MINJIE verification
   workflow.

   A DUT runs in fast mode under DiffTest with LightSSS taking
   periodic snapshots.  When DiffTest reports a mismatch, the older of
   the two retained snapshots is restored and the last <= 2N cycles
   are replayed with debugging enabled -- ArchDB capturing every
   commit, store drain and coherence transaction -- and the report
   localises the bug (for the §IV-C case study: the Acquire/Probe
   overlap on the corrupted block). *)

type debug_report = {
  first_failure : Rule.failure;
  replay_failure : Rule.failure option;
  replay_from_cycle : int;
  replay_cycles : int;
  db : Archdb.t;
  overlaps : Archdb.overlap list; (* §IV-C race signature *)
  drains_near_failure : Xiangshan.Probe.store_drain list;
  snapshots_taken : int;
  snapshot_seconds : float;
  replay_traces : Perf.Pipetrace.t array;
      (* with ~perf:true, per-hart pipeline trace windows around the
         failure, captured during the debug-mode replay *)
}

type outcome =
  | Verified of int (* exit code; no mismatch found *)
  | Debugged of debug_report

let memories_of (dt : Difftest.t) : Riscv.Memory.t list =
  (Difftest.soc dt).Xiangshan.Soc.plat.Riscv.Platform.mem
  :: List.concat_map
       (fun (r : Ref_model.t) -> r.Ref_model.memories ())
       (Array.to_list (Difftest.refs dt))

let tables_of (dt : Difftest.t) : Riscv.Cow.t list =
  Xiangshan.Soc.tables (Difftest.soc dt)

(* The Global Memory grows with the stored footprint; like fork-shared
   pages it is shared with the replayed instance instead of being
   copied into every snapshot image.  The REFs' derived state (NEMU's
   block cache) is left out altogether: the replayed REFs rebuild it
   from their restored memories. *)
let subject_of (dt : Difftest.t) : Difftest.t Lightsss.subject =
  let gm = Difftest.global_mem dt in
  let rehooks = ref [] in
  {
    Lightsss.memories = memories_of dt;
    tables = tables_of dt;
    roots = dt;
    detach_heavy =
      (fun () ->
        (* the commit slots DiffTest has checked are dead until the
           next tick *)
        Array.iter
          (fun (c : Xiangshan.Core.t) ->
            Array.iter Xiangshan.Probe.blank c.Xiangshan.Core.slots)
          (Difftest.soc dt).Xiangshan.Soc.cores;
        rehooks :=
          Global_memory.detach gm
          :: Array.to_list
               (Array.map
                  (fun (r : Ref_model.t) -> r.Ref_model.detach_derived ())
                  (Difftest.refs dt)));
    reattach_heavy =
      (fun () ->
        List.iter (fun rehook -> rehook ()) !rehooks;
        rehooks := []);
  }

(* Restore a snapshot of [dt], sharing the live Global Memory (a
   superset of its state at snapshot time, which only makes the legal
   set larger in the replayed window). *)
let restore_shared (dt : Difftest.t) (snap : Lightsss.snapshot) : Difftest.t =
  let dt' : Difftest.t = Lightsss.restore_with snap ~memories_of ~tables_of in
  Global_memory.share (Difftest.global_mem dt') ~from:(Difftest.global_mem dt);
  Difftest.compare_next_tick dt';
  dt'

(* Per-hart counter snapshots merged by name (summed across harts) and
   sorted: the interchange form the fuzzer's coverage map folds.  A
   fresh SoC starts every counter at zero, so the final snapshot IS
   the run's delta. *)
let soc_counters (soc : Xiangshan.Soc.t) : (string * int) list =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun i _ ->
      List.iter
        (fun (k, v) ->
          let prev = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
          Hashtbl.replace tbl k (prev + v))
        (Xiangshan.Soc.counter_snapshot soc ~hartid:i))
    soc.Xiangshan.Soc.cores;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* An SMP workload needs a multi-core SoC: on a single-core config it
   runs on NH instead. *)
let config_for ~workload (cfg : Xiangshan.Config.t) : Xiangshan.Config.t =
  if
    cfg.Xiangshan.Config.n_cores < 2
    && List.exists
         (fun (w : Workloads.Wl_common.t) ->
           w.Workloads.Wl_common.wl_name = workload)
         Workloads.Suite.smp
  then Xiangshan.Config.nh
  else cfg

(* The one loop that ticks DiffTest to a verdict (fast mode, the
   debug replay, the front ends and [bench]).  A plain [while]: a
   recursive helper re-passing [?snapshots] would allocate every
   cycle. *)
let drive ?snapshots ~max_cycles (dt : Difftest.t) : Difftest.status =
  let soc = Difftest.soc dt in
  let start = soc.Xiangshan.Soc.now in
  let running () =
    match Difftest.status dt with
    | Difftest.Running -> soc.Xiangshan.Soc.now - start < max_cycles
    | Difftest.Finished _ | Difftest.Failed _ -> false
  in
  while running () do
    (match snapshots with
    | Some m -> Lightsss.tick m ~cycle:soc.Xiangshan.Soc.now
    | None -> ());
    Difftest.tick dt
  done;
  Difftest.status dt

(* Run [prog] on a SoC built from [cfg] under DiffTest + LightSSS.
   [inject] can plant a fault after construction (used by the tests
   and the debugging example).  [run_collect] additionally returns the
   DUT's merged final counter snapshot (taken from the original
   instance, not a debug replay). *)
let run_collect ?(snapshot_interval = 2000) ?(max_cycles = 20_000_000)
    ?(inject = fun (_ : Xiangshan.Soc.t) -> ()) ?ref_kind ?(perf = false)
    ~(prog : Riscv.Asm.program) (cfg : Xiangshan.Config.t) :
    outcome * (string * int) list =
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  inject soc;
  (* counters are always on (pure observation); [perf] additionally
     attaches pipeline tracers, which ride inside LightSSS snapshots
     so a debug replay reproduces the trace window around the failure *)
  if perf then ignore (Xiangshan.Soc.attach_tracers soc);
  let dt = Difftest.create ?ref_kind ~prog soc in
  let mgr = Lightsss.manager ~interval:snapshot_interval (subject_of dt) in
  let outcome =
    match drive ~snapshots:mgr ~max_cycles dt with
    | Difftest.Finished c -> Verified c
    | Difftest.Running -> Verified (-1)
    | Difftest.Failed first_failure ->
        let db = Archdb.create () in
        (* restore the older snapshot (if one was taken) and replay it
           in debug mode: ArchDB + debug log on the replayed instance *)
        let replay_from_cycle, replay_cycles, replay_failure, replay_traces =
          match Lightsss.replay_point mgr with
          | None -> (0, 0, None, [||])
          | Some snap ->
              let dt' = restore_shared dt snap in
              let soc' = Difftest.soc dt' in
              Archdb.attach db soc';
              Difftest.enable_debug dt';
              let replay_start = soc'.Xiangshan.Soc.now in
              let status =
                drive ~max_cycles:((2 * snapshot_interval) + 10_000) dt'
              in
              (* persist the replayed instance's final counters; the
                 trace windows were restored from the snapshot and
                 replayed to the failure *)
              Archdb.record_counters db soc';
              ( snap.Lightsss.snap_cycle,
                soc'.Xiangshan.Soc.now - replay_start,
                (match status with
                | Difftest.Failed f -> Some f
                | Difftest.Running | Difftest.Finished _ -> None),
                if perf then
                  Array.map
                    (fun (c : Xiangshan.Core.t) ->
                      match c.Xiangshan.Core.tracer with
                      | Some tr -> tr
                      | None -> Perf.Pipetrace.create ~capacity:16 ())
                    soc'.Xiangshan.Soc.cores
                else [||] )
        in
        Debugged
          {
            first_failure;
            replay_failure;
            replay_from_cycle;
            replay_cycles;
            db;
            overlaps = Archdb.acquire_probe_overlaps db ~window:60;
            drains_near_failure =
              (match replay_failure with
              | Some f when f.Rule.f_pc <> 0L ->
                  Archdb.drains_for_line db ~addr:f.Rule.f_pc
              | Some _ | None -> []);
            snapshots_taken = mgr.Lightsss.snapshots_taken;
            snapshot_seconds = mgr.Lightsss.total_snapshot_seconds;
            replay_traces;
          }
  in
  (outcome, soc_counters soc)

let run_verified ?snapshot_interval ?max_cycles ?inject ?ref_kind ?perf
    ~(prog : Riscv.Asm.program) (cfg : Xiangshan.Config.t) : outcome =
  fst
    (run_collect ?snapshot_interval ?max_cycles ?inject ?ref_kind ?perf ~prog
       cfg)
