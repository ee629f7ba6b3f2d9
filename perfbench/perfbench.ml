(* The repository benchmark: verified co-simulation throughput.

   One process runs one op at a time (closed loop, single client).
   Every op runs in a child forked from a freshly compacted parent, so
   each op starts from the same heap and its set-up time does not
   depend on what earlier ops left behind; the child measures its own
   time, allocation and peak RSS and sends them back through a pipe.

   The end-to-end metrics of a workload are aggregated over its
   kernels: for each kernel the median over the run's ops, then the
   geometric mean over kernels.
   See README.md in this directory for the metric definitions. *)

open Printf

let now = Unix.gettimeofday

(* Traced runs write their spans here, under the checkout. *)
let out_dir = Filename.concat "perfbench" "_out"

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Per-op isolation                                                    *)
(* ------------------------------------------------------------------ *)

(* Peak resident set of the calling process, in kB (Linux VmHWM). *)
let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Run [f] in a child forked from a compacted parent and return its
   result.  Anything the child raises, and a child that dies, comes
   back as [Error]. *)
let isolated (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  Gc.compact ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let res : ('a, string) result =
        try Ok (f ()) with e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc res [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let res =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file | Failure _ -> Error "op process sent no result"
      in
      close_in ic;
      let rec reap () =
        try snd (Unix.waitpid [] pid)
        with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      in
      (match reap () with
      | Unix.WEXITED 0 -> res
      | Unix.WEXITED c -> Error (sprintf "op process exited with %d" c)
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
          Error (sprintf "op process killed by signal %d" s))

(* ------------------------------------------------------------------ *)
(* Host-speed reference                                                *)
(* ------------------------------------------------------------------ *)

(* Host speed on the reference host drifts by up to 1.5x over minutes,
   with other tenants' load on the memory system; the simulator, which
   allocates about 900 words per simulated cycle, drifts with it.  A
   fixed loop with the same kind of work (small records allocated and
   promoted, a hash table, random reads over an 8 MB array), timed in
   an op process of its own about once a second, measures the drift.
   End-to-end host times are scaled to a host on which the loop takes
   [reference_nominal_s]. *)
type node = { v : int; prev : node option; tag : int64 }

let reference_nominal_s = 0.15

let reference_every_s = 1.0

let reference () =
  (* the loop's own GC settings, whatever the program sets *)
  Gc.set { (Gc.get ()) with minor_heap_size = 262_144; space_overhead = 120 };
  let t0 = now () in
  let n = 1 lsl 18 in
  let nodes = Array.init n (fun i -> { v = i; prev = None; tag = 0L }) in
  let tbl = Hashtbl.create 65_536 in
  let st = ref 1 and acc = ref 0L in
  for c = 1 to 150_000 do
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    let x = nodes.(!st land (n - 1)) in
    let r = { v = x.v + c; prev = Some x; tag = Int64.add x.tag 1L } in
    nodes.((!st lsr 8) land (n - 1)) <- r;
    Hashtbl.replace tbl (!st land 65_535) r;
    (match Hashtbl.find_opt tbl ((!st lsr 4) land 65_535) with
    | Some y -> acc := Int64.add !acc y.tag
    | None -> ());
    ignore (Sys.opaque_identity (List.map (fun v -> v + c) [ 1; 2; 3 ]))
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

(* A span covers one call into a layer, or the sum of a layer's
   per-cycle calls within one op ([calls] > 1).  Spans nest by
   [parent] (0 = root); an op's spans share the op id the parent
   process stamps on them. *)
type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_start : float;
  sp_dur : float;
  sp_calls : int;
}

type tracer = {
  mutable recorded : span list;
  mutable next_id : int;
  mutable stack : int list;
}

let tracer () = { recorded = []; next_id = 1; stack = [] }

let parent_of tr = match tr.stack with p :: _ -> p | [] -> 0

let record_span tr ~id ~parent ~calls name ~start ~dur =
  tr.recorded <-
    {
      sp_id = id;
      sp_parent = parent;
      sp_name = name;
      sp_start = start;
      sp_dur = dur;
      sp_calls = calls;
    }
    :: tr.recorded

let fresh_id tr =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  id

(* One span under the innermost open span for [calls] per-cycle calls
   that together took [dur] seconds. *)
let add_span tr ~calls name ~start ~dur =
  record_span tr ~id:(fresh_id tr) ~parent:(parent_of tr) ~calls name ~start
    ~dur

(* Time [f] as a span named [name] under the innermost open span. *)
let span tr name f =
  let id = fresh_id tr and parent = parent_of tr in
  tr.stack <- id :: tr.stack;
  let start = now () in
  Fun.protect f ~finally:(fun () ->
      tr.stack <- List.tl tr.stack;
      record_span tr ~id ~parent ~calls:1 name ~start ~dur:(now () -. start))

(* Self time: a span's duration minus the time its children cover. *)
let self_times (spans : span list) : (int * float) list =
  List.map
    (fun s ->
      let children =
        List.fold_left
          (fun acc c -> if c.sp_parent = s.sp_id then acc +. c.sp_dur else acc)
          0.0 spans
      in
      (s.sp_id, s.sp_dur -. children))
    spans

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

(* What one op measured, in the process that ran it. *)
type op = {
  key : string;  (** the kernel or campaign cell the op ran *)
  setup_s : float;  (** host seconds before the first simulated cycle *)
  run_s : float;  (** host seconds of the timed simulation *)
  cycles : int;  (** simulated DUT cycles in [run_s] *)
  ipc : float;  (** simulated instructions per simulated cycle *)
  words : float;  (** minor words allocated by the timed simulator calls *)
  rss_kb : int;  (** peak resident set of the op process *)
  error : string option;  (** why the op's output is wrong, if it is *)
  layers : (string * float) list;
      (** traced ops only: additive per-layer quantities *)
  spans : span list;  (** traced ops only *)
}

let op_result ~key ~setup_s ~run_s ~cycles ~ipc ~words ?(layers = [])
    ?(spans = []) error =
  {
    key;
    setup_s;
    run_s;
    cycles;
    ipc;
    words;
    rss_kb = peak_rss_kb ();
    error;
    layers;
    spans;
  }

(* Time and count the allocation of the simulator call [f]: the
   minor-word reads sit directly around it, so the count is exactly
   the simulator's and repeats run to run. *)
let measure f =
  let t0 = now () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  let t1 = now () in
  (r, t1 -. t0, w1 -. w0)

let counter ctrs name = Option.value (List.assoc_opt name ctrs) ~default:0

let instrs_of_counters ctrs = counter ctrs "core.instrs"

(* Top-down level-1 cycles, L1D misses and branch mispredicts of a
   merged counter snapshot. *)
let perf_layers ctrs =
  let td =
    match Perf.Topdown.of_counters ctrs with
    | Ok s ->
        let l1 = Perf.Topdown.level1_cycles s in
        let get groups =
          List.fold_left
            (fun acc (g, c) -> if List.mem g groups then acc + c else acc)
            0 l1
        in
        Perf.Topdown.
          [
            ("topdown.retiring", get [ L1_base ]);
            ("topdown.frontend", get [ L1_frontend ]);
            ("topdown.bad_spec", get [ L1_badspec ]);
            ("topdown.backend", get [ L1_backend_mem; L1_backend_core ]);
          ]
    | Error msg -> failwith ("top-down: " ^ msg)
  in
  List.map
    (fun (k, v) -> (k, float_of_int v))
    (td
    @ [
        ("l1d.misses", counter ctrs "l1d.misses");
        ("bpu.mispredicts", counter ctrs "bpu.mispredicts");
      ])

(* ------------------------------------------------------------------ *)
(* Shared layer calls                                                  *)
(* ------------------------------------------------------------------ *)

module Soc = Xiangshan.Soc
module Dt = Minjie.Difftest

(* The set-up of a co-simulated op: program assembly, the SoC with the
   image loaded, and DiffTest with one REF per hart. *)
let build_cosim ?tr ~(wl : Workloads.Wl_common.t) ~scale ~cfg ~ref_kind () =
  let sp name f = match tr with Some tr -> span tr name f | None -> f () in
  let prog = sp "setup.asm" (fun () -> wl.Workloads.Wl_common.program ~scale) in
  let soc =
    sp "setup.soc" (fun () ->
        let soc = Soc.create cfg in
        Soc.load_program soc prog;
        soc)
  in
  let dt = sp "setup.difftest" (fun () -> Dt.create ~ref_kind ~prog soc) in
  (prog, soc, dt)

(* DiffTest in fast mode with LightSSS snapshots: the loop of
   [Workflow.run_collect] up to its first failure, rebuilt from the
   same public calls so the snapshot ticks can be timed apart. *)
type fast_mode = {
  fm_soc : Soc.t;
  fm_dt : Dt.t;
  fm_mgr : Dt.t Lightsss.manager;
  fm_loop_s : float;
  fm_loop_words : float;
  fm_snap_words : float;
}

let fast_mode tr ~interval ~max_cycles soc dt =
  let mgr = Lightsss.manager ~interval (Minjie.Workflow.subject_of dt) in
  let snap_words = ref 0.0 in
  let start = soc.Soc.now in
  let running () =
    match Dt.status dt with
    | Dt.Running -> soc.Soc.now - start < max_cycles
    | Dt.Finished _ | Dt.Failed _ -> false
  in
  let (), loop_s, loop_words =
    span tr "difftest.loop" (fun () ->
        let loop_start = now () in
        let r =
          measure (fun () ->
              while running () do
                let cycle = soc.Soc.now in
                if cycle - mgr.Lightsss.last_snap_cycle >= mgr.Lightsss.interval
                then begin
                  let w0 = Gc.minor_words () in
                  Lightsss.tick mgr ~cycle;
                  snap_words := !snap_words +. (Gc.minor_words () -. w0)
                end
                else Lightsss.tick mgr ~cycle;
                Dt.tick dt
              done)
        in
        add_span tr "lightsss.snapshot" ~calls:mgr.Lightsss.snapshots_taken
          ~start:loop_start ~dur:mgr.Lightsss.total_snapshot_seconds;
        r)
  in
  {
    fm_soc = soc;
    fm_dt = dt;
    fm_mgr = mgr;
    fm_loop_s = loop_s;
    fm_loop_words = loop_words;
    fm_snap_words = !snap_words;
  }

(* The standalone parts a fast-mode run is attributed to: the raw DUT
   on the same program and configuration (no DiffTest), each hart's
   REF stepped alone for the commits its core retired, and one LightSSS
   restore of the replay point.  DiffTest's own share is what is left
   of the loop. *)
let attribute tr ~cfg ~prog ~ref_kind (fm : fast_mode) =
  let cycles = fm.fm_soc.Soc.now in
  let restore_s, image_bytes =
    match Lightsss.replay_point fm.fm_mgr with
    | Some snap ->
        let _, restore_s, _ =
          span tr "lightsss.restore" (fun () ->
              measure (fun () -> Minjie.Workflow.restore_shared fm.fm_dt snap))
        in
        (restore_s, snap.Lightsss.image_bytes)
    | None -> (0.0, 0)
  in
  let raw = Soc.create cfg in
  Soc.load_program raw prog;
  let raw_cycles, raw_s, raw_words =
    span tr "xiangshan.raw" (fun () ->
        measure (fun () -> Soc.run ~max_cycles:cycles raw))
  in
  let ref_insns = ref 0 and ref_s = ref 0.0 and ref_words = ref 0.0 in
  Array.iteri
    (fun hartid _ ->
      let n =
        instrs_of_counters (Soc.counter_snapshot fm.fm_soc ~hartid)
      in
      let r = Minjie.Ref_model.create ~kind:ref_kind ~hartid ~prog () in
      let stepped, s, w =
        span tr "ref_model.raw" (fun () ->
            measure (fun () ->
                let k = ref 0 in
                (try
                   while !k < n do
                     match r.Minjie.Ref_model.step () with
                     | Minjie.Ref_model.Committed _ -> incr k
                     | Minjie.Ref_model.Exited -> raise Exit
                   done
                 with Exit -> ());
                !k))
      in
      ref_insns := !ref_insns + stepped;
      ref_s := !ref_s +. s;
      ref_words := !ref_words +. w)
    fm.fm_soc.Soc.cores;
  let snap_s = fm.fm_mgr.Lightsss.total_snapshot_seconds in
  let fires =
    List.fold_left (fun a (_, n) -> a + n) 0 (Dt.rule_fire_counts fm.fm_dt)
  in
  [
    ("xiangshan.self_s", raw_s);
    ("xiangshan.cycles", float_of_int raw_cycles);
    ("xiangshan.words", raw_words);
    ("ref_model.self_s", !ref_s);
    ("ref_model.insns", float_of_int !ref_insns);
    ("lightsss.snapshots", float_of_int fm.fm_mgr.Lightsss.snapshots_taken);
    ("lightsss.snapshot_s", snap_s);
    ("lightsss.restore_s", restore_s);
    ("lightsss.image_bytes", float_of_int image_bytes);
    ("difftest.loop_s", fm.fm_loop_s);
    ("difftest.self_s", fm.fm_loop_s -. snap_s -. raw_s -. !ref_s);
    ( "difftest.words",
      fm.fm_loop_words -. fm.fm_snap_words -. raw_words -. !ref_words );
    ("difftest.cycles", float_of_int cycles);
    ("difftest.commits_checked", float_of_int (Dt.commits_checked fm.fm_dt));
    ("difftest.rule_fires", float_of_int fires);
  ]
  @ perf_layers (Minjie.Workflow.soc_counters fm.fm_soc)

let span_dur tr name =
  List.fold_left
    (fun acc s -> if s.sp_name = name then acc +. s.sp_dur else acc)
    0.0 tr.recorded

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  keys : string list;  (** kernels or cells, one op each per pass *)
  untraced : string -> unit -> op;
  traced : string -> unit -> op;
  run_layers : unit -> (string * float) list;
      (** traced runs only: per-run layer measurements *)
}

(* -- cosim_spec / cosim_system -------------------------------------- *)

type kernel = {
  k_wl : Workloads.Wl_common.t;
  k_scale : int;
  k_cfg : Xiangshan.Config.t;
  k_ref : Minjie.Ref_model.kind;
  k_exit : int;  (** the kernel's checksum exit code *)
}

let kernel name scale cfg ref_kind exit_code =
  {
    k_wl = Minjie.Campaign.find_workload name;
    k_scale = scale;
    k_cfg = cfg;
    k_ref = ref_kind;
    k_exit = exit_code;
  }

(* Snapshot interval and cycle budget of [Workflow.run_collect]. *)
let cosim_interval = 2000

let cosim_max_cycles = 20_000_000

let check_exit k = function
  | Dt.Finished c when c = k.k_exit -> None
  | Dt.Finished c ->
      Some (sprintf "exit code %d, expected %d" c k.k_exit)
  | Dt.Failed f -> Some ("DiffTest failure: " ^ Minjie.Rule.string_of_failure f)
  | Dt.Running -> Some "cycle budget exhausted"

let status_of_outcome = function
  | Minjie.Workflow.Verified c -> Dt.Finished c
  | Minjie.Workflow.Debugged r -> Dt.Failed r.Minjie.Workflow.first_failure

let cosim_untraced k () =
  let key = k.k_wl.Workloads.Wl_common.wl_name in
  let t0 = now () in
  let prog, _, _ =
    build_cosim ~wl:k.k_wl ~scale:k.k_scale ~cfg:k.k_cfg ~ref_kind:k.k_ref ()
  in
  let setup_s = now () -. t0 in
  let soc = ref None in
  let (outcome, ctrs), run_s, words =
    measure (fun () ->
        Minjie.Workflow.run_collect ~ref_kind:k.k_ref
          ~inject:(fun s -> soc := Some s)
          ~prog k.k_cfg)
  in
  let cycles = match !soc with Some s -> s.Soc.now | None -> 0 in
  op_result ~key ~setup_s ~run_s ~cycles
    ~ipc:(float_of_int (instrs_of_counters ctrs) /. float_of_int (max 1 cycles))
    ~words
    (check_exit k (status_of_outcome outcome))

let cosim_traced k () =
  let key = k.k_wl.Workloads.Wl_common.wl_name in
  let tr = tracer () in
  let prog, fm =
    span tr "op" (fun () ->
        let prog, soc, dt =
          span tr "setup" (fun () ->
              build_cosim ~tr ~wl:k.k_wl ~scale:k.k_scale ~cfg:k.k_cfg
                ~ref_kind:k.k_ref ())
        in
        ( prog,
          fast_mode tr ~interval:cosim_interval ~max_cycles:cosim_max_cycles
            soc dt ))
  in
  let layers = attribute tr ~cfg:k.k_cfg ~prog ~ref_kind:k.k_ref fm in
  let cycles = fm.fm_soc.Soc.now in
  let instrs =
    instrs_of_counters (Minjie.Workflow.soc_counters fm.fm_soc)
  in
  op_result ~key ~setup_s:(span_dur tr "setup") ~run_s:fm.fm_loop_s ~cycles
    ~ipc:(float_of_int instrs /. float_of_int (max 1 cycles))
    ~words:fm.fm_loop_words ~spans:tr.recorded
    ~layers:
      (layers
      @ [
          ("op.traced_s", span_dur tr "op");
          ("setup.soc_s", span_dur tr "setup.soc");
          ("setup.difftest_s", span_dur tr "setup.difftest");
        ])
    (check_exit k (Dt.status fm.fm_dt))

let cosim_workload name kernels =
  let find key =
    List.find (fun k -> k.k_wl.Workloads.Wl_common.wl_name = key) kernels
  in
  {
    name;
    keys = List.map (fun k -> k.k_wl.Workloads.Wl_common.wl_name) kernels;
    untraced = (fun key -> cosim_untraced (find key));
    traced = (fun key -> cosim_traced (find key));
    run_layers = (fun () -> []);
  }

(* -- campaign -------------------------------------------------------- *)

(* [Campaign.run_cell]'s defaults: every cell runs with these. *)
let cell_interval = 1_500

let cell_max_cycles = 400_000

let campaign_ref = Minjie.Ref_model.Iss

let cell_key (f : Minjie.Fault.t) seed =
  sprintf "%s#%d" f.Minjie.Fault.f_name seed

(* The registry grid in [Campaign.run]'s order; the benchmark seed
   [s] selects fault seeds [s] and [s + 1]. *)
let campaign_grid seed =
  List.concat_map
    (fun f -> [ (f, seed); (f, seed + 1) ])
    Minjie.Fault.all

let cell_setup ?tr (f : Minjie.Fault.t) =
  let wl = Minjie.Campaign.find_workload f.Minjie.Fault.f_workload in
  let cfg =
    match f.Minjie.Fault.f_config with
    | Minjie.Fault.Yqh -> Xiangshan.Config.yqh
    | Minjie.Fault.Nh -> Xiangshan.Config.nh
  in
  let prog, soc, dt =
    build_cosim ?tr ~wl ~scale:wl.Workloads.Wl_common.small ~cfg
      ~ref_kind:campaign_ref ()
  in
  (cfg, prog, soc, dt)

(* Simulated cycles of a cell: fast mode up to the failure, then the
   debug replay from the restored snapshot back to it. *)
let cell_cycles (c : Minjie.Campaign.cell) =
  c.Minjie.Campaign.c_failure_cycle + max 0 c.Minjie.Campaign.c_replay_window

let check_cell (c : Minjie.Campaign.cell) =
  let open Minjie.Campaign in
  if not c.c_detected then Some ("escape: " ^ c.c_msg)
  else if not c.c_rule_expected then Some ("unexpected rule " ^ c.c_rule)
  else if not (c.c_replayed && c.c_replay_within) then
    Some "replay missed or outside two snapshot intervals"
  else None

let run_cell f seed () =
  Minjie.Campaign.run_cell ~snapshot_interval:cell_interval
    ~max_cycles:cell_max_cycles ~ref_kind:campaign_ref ~fault:f ~seed ()

let cell_op ~key ~setup_s ~run_s ~words ?layers ?spans c =
  op_result ~key ~setup_s ~run_s ~cycles:(cell_cycles c)
    ~ipc:
      (float_of_int c.Minjie.Campaign.c_commits
      /. float_of_int (max 1 c.Minjie.Campaign.c_failure_cycle))
    ~words ?layers ?spans (check_cell c)

let cell_untraced (f, seed) () =
  let t0 = now () in
  ignore (cell_setup f);
  let setup_s = now () -. t0 in
  let c, run_s, words = measure (run_cell f seed) in
  cell_op ~key:(cell_key f seed) ~setup_s ~run_s ~words c

let cell_traced (f, seed) () =
  let tr = tracer () in
  let c, run_s, words =
    span tr "op" (fun () ->
        ignore (span tr "setup" (fun () -> cell_setup ~tr f));
        span tr "campaign.cell" (fun () -> measure (run_cell f seed)))
  in
  (* attribution: the same cell in fast mode, then its debug run *)
  let cfg, prog, soc, dt = cell_setup f in
  f.Minjie.Fault.f_install ~seed ~trigger:f.Minjie.Fault.f_trigger soc;
  let fm =
    fast_mode tr ~interval:cell_interval ~max_cycles:cell_max_cycles soc dt
  in
  let layers = attribute tr ~cfg ~prog ~ref_kind:campaign_ref fm in
  let replay_cycles, records =
    span tr "workflow.debug_run" (fun () ->
        match
          Minjie.Workflow.run_verified ~snapshot_interval:cell_interval
            ~max_cycles:cell_max_cycles ~ref_kind:campaign_ref
            ~inject:(fun soc ->
              f.Minjie.Fault.f_install ~seed ~trigger:f.Minjie.Fault.f_trigger
                soc)
            ~prog cfg
        with
        | Minjie.Workflow.Debugged r ->
            let db = r.Minjie.Workflow.db in
            ( r.Minjie.Workflow.replay_cycles,
              Minjie.Archdb.(
                count db.commits + count db.drains + count db.cache_events
                + count db.counters) )
        | Minjie.Workflow.Verified _ -> (0, 0))
  in
  cell_op ~key:(cell_key f seed) ~setup_s:(span_dur tr "setup") ~run_s ~words
    ~spans:tr.recorded
    ~layers:
      (layers
      @ [
          ("op.traced_s", span_dur tr "op");
          ("setup.soc_s", span_dur tr "setup.soc");
          ("setup.difftest_s", span_dur tr "setup.difftest");
          ("campaign.cell_s", span_dur tr "campaign.cell");
          ("campaign.cells", 1.0);
          ("workflow.replay_cycles", float_of_int replay_cycles);
          ("archdb.records", float_of_int records);
        ])
    c

let probe_jobs = 30

(* Per-job cost of the worker pool at two workers when the job itself
   only returns the verdict of cell [f, seed] (fork, Marshal, reap), and
   per-cell cost of an fsynced journal append of it.  The timed
   campaign runs use neither. *)
let pool_and_journal (f, seed) () =
  let probe_cell = run_cell f seed () in
  let jobs =
    List.init probe_jobs (fun i ->
        {
          Minjie.Pool.j_label = sprintf "probe%d" i;
          j_cost = 1.0;
          j_run = (fun () -> probe_cell);
        })
  in
  let results, _ = Minjie.Pool.map ~jobs:2 jobs in
  List.iter
    (fun (r : Minjie.Campaign.cell Minjie.Pool.result) ->
      match r.Minjie.Pool.r_outcome with
      | Minjie.Pool.Done _ -> ()
      | _ -> failwith ("pool probe failed: " ^ r.Minjie.Pool.r_label))
    results;
  let fork_s =
    median
      (List.map
         (fun (r : _ Minjie.Pool.result) -> r.Minjie.Pool.r_seconds)
         results)
  in
  let path = Filename.concat out_dir "journal-probe.bin" in
  (try Sys.remove path with Sys_error _ -> ());
  let j, (_ : Minjie.Campaign.cell list) =
    Minjie.Journal.open_ ~path ~key:"perfbench-journal-probe"
  in
  let appends =
    List.init probe_jobs (fun _ ->
        let t0 = now () in
        Minjie.Journal.append j probe_cell;
        now () -. t0)
  in
  Minjie.Journal.close j;
  Sys.remove path;
  [ ("pool.fork_marshal_s", fork_s); ("journal.append_s", median appends) ]

let campaign_workload ~seed =
  let grid = campaign_grid seed in
  let find key = List.find (fun (f, s) -> cell_key f s = key) grid in
  {
    name = "campaign";
    keys = List.map (fun (f, s) -> cell_key f s) grid;
    untraced = (fun key -> cell_untraced (find key));
    traced = (fun key -> cell_traced (find key));
    run_layers =
      (fun () ->
        match isolated (pool_and_journal (List.hd grid)) with
        | Ok l -> l
        | Error msg -> failwith msg);
  }

(* -- sampled --------------------------------------------------------- *)

(* [Sampled]'s defaults: profile interval, clusters, warm-up and
   measured instructions per sample. *)
let sp_interval = 100_000

let sp_max_k = 8

let sp_warmup = 20_000

let sp_measure = 20_000

(* What the SimPoint flow on the sampled kernel must reproduce.
   [Sampled.simulate_checkpoint] reports only the measured cycles of a
   sample, so the warm-up cycles it also simulates are recorded here
   and re-measured by every traced op. *)
type sampled_expect = {
  se_wl : string;
  se_scale : int;
  se_samples : int;
  se_weighted_ipc : float;
  se_measure_cycles : int;
  se_warmup_cycles : int;
}

let sampled_expect =
  {
    se_wl = "mcf_like";
    se_scale = 600;
    se_samples = 7;
    se_weighted_ipc = 0x1.020b77c616c34p-1;
    se_measure_cycles = 253_475;
    se_warmup_cycles = 300_265;
  }

let check_sampled ~samples ~ipc ~measure_cycles ?warmup_cycles () =
  let e = sampled_expect in
  if samples <> e.se_samples then
    Some (sprintf "%d samples, expected %d" samples e.se_samples)
  else if not (Float.equal ipc e.se_weighted_ipc) then
    Some (sprintf "weighted IPC %h, expected %h" ipc e.se_weighted_ipc)
  else if measure_cycles <> e.se_measure_cycles then
    Some
      (sprintf "%d measured cycles, expected %d" measure_cycles
         e.se_measure_cycles)
  else
    match warmup_cycles with
    | Some w when w <> e.se_warmup_cycles ->
        Some (sprintf "%d warm-up cycles, expected %d" w e.se_warmup_cycles)
    | Some _ | None -> None

let sampled_prog () =
  (Workloads.Suite.find sampled_expect.se_wl).Workloads.Wl_common.program
    ~scale:sampled_expect.se_scale

let sampled_cfg = Xiangshan.Config.yqh

let sampled_untraced () =
  let prog = sampled_prog () in
  let t0 = now () in
  let cks, _ =
    Checkpoint.Sampled.generate ~interval:sp_interval ~max_k:sp_max_k prog
  in
  let setup_s = now () -. t0 in
  let results, run_s, words =
    measure (fun () ->
        List.map
          (Checkpoint.Sampled.simulate_checkpoint ~warmup:sp_warmup
             ~measure:sp_measure sampled_cfg)
          cks)
  in
  let measure_cycles =
    List.fold_left (fun a r -> a + r.Checkpoint.Sampled.sr_cycles) 0 results
  in
  let ipc = Checkpoint.Sampled.weighted_ipc results in
  op_result ~key:sampled_expect.se_wl ~setup_s ~run_s
    ~cycles:(measure_cycles + sampled_expect.se_warmup_cycles)
    ~ipc ~words
    (check_sampled ~samples:(List.length results) ~ipc ~measure_cycles ())

(* [Sampled.generate] and [Sampled.simulate_checkpoint] rebuilt from
   the same public calls, so profile, select, capture and each
   sample's warm-up and measurement are timed apart. *)
let sampled_traced () =
  let tr = tracer () in
  let prog = sampled_prog () in
  let samples, measure_cycles, warmup_cycles, sample_words, ctrs =
    span tr "op" (fun () ->
        let cks =
          span tr "setup" (fun () ->
              let vectors =
                span tr "checkpoint.profile" (fun () ->
                    let m = Nemu.Mach.create () in
                    Nemu.Mach.load_program m prog;
                    let engine = Nemu.Fast.create m in
                    let bbv = Checkpoint.Bbv.create ~interval:sp_interval in
                    Checkpoint.Bbv.attach bbv engine;
                    ignore (Nemu.Fast.run engine ~max_insns:200_000_000);
                    Checkpoint.Bbv.finish bbv;
                    Checkpoint.Bbv.vectors bbv)
              in
              let selections =
                span tr "checkpoint.select" (fun () ->
                    Checkpoint.Simpoint.select vectors ~max_k:sp_max_k)
              in
              span tr "checkpoint.capture" (fun () ->
                  let m = Nemu.Mach.create () in
                  Nemu.Mach.load_program m prog;
                  let engine = Nemu.Fast.create m in
                  List.filter_map
                    (fun (s : Checkpoint.Simpoint.selection) ->
                      let target =
                        s.Checkpoint.Simpoint.sp_interval * sp_interval
                      in
                      let need = target - m.Nemu.Mach.instret in
                      if need < 0 then None
                      else begin
                        ignore (Nemu.Fast.run engine ~max_insns:(max 1 need));
                        if
                          (not m.Nemu.Mach.running)
                          && target > m.Nemu.Mach.instret
                        then None
                        else
                          Some
                            ( s.Checkpoint.Simpoint.sp_interval,
                              s.Checkpoint.Simpoint.sp_weight,
                              Checkpoint.Arch_checkpoint.capture_mach m )
                      end)
                    selections))
        in
        span tr "sampling" (fun () ->
            let words = ref 0.0 and warm = ref 0 and measured = ref 0 in
            let ctrs = ref [] in
            let results =
              List.map
                (fun (index, weight, ck) ->
                  span tr "checkpoint.sample" (fun () ->
                      let soc = Soc.create sampled_cfg in
                      Checkpoint.Arch_checkpoint.restore_soc ck soc;
                      let core = soc.Soc.cores.(0) in
                      let instrs () =
                        core.Xiangshan.Core.perf.Xiangshan.Core.p_instrs
                      in
                      let s0 = soc.Soc.now in
                      let (i0, c0), _, w =
                        measure (fun () ->
                            while
                              instrs () < sp_warmup
                              && (not (Soc.exited soc))
                              && soc.Soc.now < 50 * (sp_warmup + sp_measure)
                            do
                              Soc.tick soc
                            done;
                            let i0 = instrs () and c0 = soc.Soc.now in
                            while
                              instrs () - i0 < sp_measure
                              && (not (Soc.exited soc))
                              && soc.Soc.now - c0 < 100 * sp_measure
                            do
                              Soc.tick soc
                            done;
                            (i0, c0))
                      in
                      let n = instrs () - i0 and c = soc.Soc.now - c0 in
                      words := !words +. w;
                      warm := !warm + (c0 - s0);
                      measured := !measured + c;
                      ctrs := Soc.counter_snapshot soc ~hartid:0 :: !ctrs;
                      {
                        Checkpoint.Sampled.sr_index = index;
                        sr_weight = weight;
                        sr_instructions = n;
                        sr_cycles = c;
                        sr_ipc =
                          (if c = 0 then 0.0
                           else float_of_int n /. float_of_int c);
                      }))
                cks
            in
            (results, !measured, !warm, !words, !ctrs)))
  in
  let stats =
    span tr "nemu.raw" (fun () ->
        Nemu.Engine.run_program_stats Nemu.Engine.Nemu prog)
  in
  let ipc = Checkpoint.Sampled.weighted_ipc samples in
  let sample_s = span_dur tr "sampling" in
  let n_samples = List.length samples in
  let perf =
    List.fold_left
      (fun acc c ->
        List.map2 (fun (k, a) (_, b) -> (k, a +. b)) acc (perf_layers c))
      (perf_layers (List.hd ctrs))
      (List.tl ctrs)
  in
  op_result ~key:sampled_expect.se_wl ~setup_s:(span_dur tr "setup")
    ~run_s:sample_s ~cycles:(measure_cycles + warmup_cycles) ~ipc
    ~words:sample_words ~spans:tr.recorded
    ~layers:
      ([
         ("op.traced_s", span_dur tr "op");
         ("xiangshan.self_s", sample_s);
         ("xiangshan.cycles", float_of_int (measure_cycles + warmup_cycles));
         ("xiangshan.words", sample_words);
         ("nemu.self_s", stats.Nemu.Engine.seconds);
         ("nemu.insns", float_of_int stats.Nemu.Engine.insns);
         ("nemu.slow_lookups", float_of_int stats.Nemu.Engine.slow_lookups);
         ("nemu.compiled", float_of_int stats.Nemu.Engine.compiled);
         ("nemu.flushes", float_of_int stats.Nemu.Engine.flushes);
         ("checkpoint.profile_s", span_dur tr "checkpoint.profile");
         ("checkpoint.select_s", span_dur tr "checkpoint.select");
         ("checkpoint.capture_s", span_dur tr "checkpoint.capture");
         ("checkpoint.sampling_s", sample_s);
         ("checkpoint.samples", float_of_int n_samples);
       ]
      @ perf)
    (check_sampled ~samples:n_samples ~ipc ~measure_cycles ~warmup_cycles ())

let sampled_workload =
  {
    name = "sampled";
    keys = [ sampled_expect.se_wl ];
    untraced = (fun _ -> sampled_untraced);
    traced = (fun _ -> sampled_traced);
    run_layers = (fun () -> []);
  }

(* ------------------------------------------------------------------ *)
(* The workloads                                                       *)
(* ------------------------------------------------------------------ *)

(* Compute kernels on single-core YQH against the NEMU REF, each sized
   to one to three seconds of co-simulation. *)
let cosim_spec =
  let k name scale code =
    kernel name scale Xiangshan.Config.yqh Minjie.Ref_model.Nemu code
  in
  cosim_workload "cosim_spec"
    [ k "mcf_like" 1 195; k "coremark_like" 10 198; k "bwaves_like" 4 95 ]

(* System and SMP kernels at their big scales on dual-core NH against
   the ISS REF: traps, CSR reads, PTE and SC diff-rules, two REF
   harts. *)
let cosim_system =
  let k name scale code =
    kernel name scale Xiangshan.Config.nh Minjie.Ref_model.Iss code
  in
  cosim_workload "cosim_system"
    [
      k "vm_kernel" 16 42;
      k "user_mode" 12 196;
      k "timer_interrupts" 10 30;
      k "smp_lrsc" 20 64;
      k "smp_spinlock" 20 208;
    ]

let workloads ~seed =
  [ cosim_spec; cosim_system; sampled_workload; campaign_workload ~seed ]

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let fail tally msg =
  tally.failed <- tally.failed + 1;
  tally.errors <- msg :: tally.errors

(* Count an op; a failed op is counted, never dropped. *)
let record tally key = function
  | Ok (op : op) ->
      tally.attempted <- tally.attempted + 1;
      Option.iter (fun e -> fail tally (key ^ ": " ^ e)) op.error;
      Some op
  | Error msg ->
      tally.attempted <- tally.attempted + 1;
      fail tally (key ^ ": " ^ msg);
      None

(* Closed loop over the workload's keys: one complete pass, then more
   ops round robin until [seconds] have passed. *)
let passes w ~seconds f =
  let keys = Array.of_list w.keys in
  let n = Array.length keys in
  let t0 = now () in
  let i = ref 0 in
  while !i < n || now () -. t0 < seconds do
    f keys.(!i mod n);
    incr i
  done

(* Ops of the same key must repeat their simulated results exactly. *)
let check_repeats tally (ops : op list) ~same =
  let firsts = Hashtbl.create 16 in
  List.iter
    (fun (op : op) ->
      match Hashtbl.find_opt firsts op.key with
      | None -> Hashtbl.add firsts op.key op
      | Some first -> (
          match same first op with
          | Some what ->
              fail tally (sprintf "%s: %s differs between ops" op.key what)
          | None -> ()))
    ops

let same_simulation (a : op) (b : op) =
  if a.cycles <> b.cycles then Some "cycles"
  else if not (Float.equal a.ipc b.ipc) then Some "ipc"
  else if not (Float.equal a.words b.words) then Some "alloc words"
  else None

(* Per key, the median over the key's ops. *)
let per_key keys (ops : op list) f =
  List.filter_map
    (fun key ->
      match List.filter (fun (o : op) -> o.key = key) ops with
      | [] -> None
      | mine -> Some (median (List.map f mine)))
    keys

let json_number v = if Float.is_finite v then sprintf "%.17g" v else "0"

let print_result tally metrics =
  let correct =
    tally.failed = 0
    && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  List.iter (fun e -> eprintf "FAILED %s\n" e) (List.rev tally.errors);
  printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n"
    correct tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit)
          metrics))

let end_to_end w ~seconds =
  let tally = { attempted = 0; failed = 0; errors = [] } in
  let ops = ref [] in
  let refs = ref [] and last_ref = ref neg_infinity in
  passes w ~seconds (fun key ->
      if now () -. !last_ref >= reference_every_s then begin
        (match isolated reference with
        | Ok t -> refs := t :: !refs
        | Error msg -> fail tally ("host reference: " ^ msg));
        last_ref := now ()
      end;
      match record tally key (isolated (w.untraced key)) with
      | Some op ->
          printf
            "  %-24s setup %8.4f s  run %7.3f s  %9d cycles  %8.1f kc/s\n%!"
            key op.setup_s op.run_s op.cycles
            (float_of_int op.cycles /. op.run_s /. 1e3);
          ops := op :: !ops
      | None -> ());
  let ops = List.rev !ops in
  check_repeats tally ops ~same:same_simulation;
  let k f = per_key w.keys ops f in
  (* > 1 when the host ran slower than the reference host *)
  let slowdown = median !refs /. reference_nominal_s in
  printf "host reference: median %.4f s over %d runs, slowdown %.3f\n"
    (median !refs) (List.length !refs) slowdown;
  print_result tally
    [
      ( "kcps",
        slowdown
        *. geomean (k (fun o -> float_of_int o.cycles /. o.run_s /. 1e3)),
        "kc/s" );
      ("setup_s", geomean (k (fun o -> o.setup_s)) /. slowdown, "s");
      ("ipc", geomean (k (fun o -> o.ipc)), "insn/cycle");
      ( "alloc_words_per_cycle",
        geomean (k (fun o -> o.words /. float_of_int o.cycles)),
        "words/cycle" );
      ( "peak_rss_mb",
        geomean (k (fun o -> float_of_int o.rss_kb /. 1024.0)),
        "MB" );
    ]

(* The per-layer metrics of a traced run, derived from the additive
   quantities each traced op reports: per key the median over its
   ops, summed over keys (one median pass). *)
let layer_metrics (s : string -> float) run_layers =
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let count name = (name, s name, "count") in
  let secs name = (name, s name, "s") in
  let per_run name =
    (name, Option.value (List.assoc_opt name run_layers) ~default:0.0, "s")
  in
  [
    secs "op.traced_s";
    secs "op.untraced_s";
    ( "trace.overhead_pct",
      100.0 *. (ratio (s "op.traced_s") (s "op.untraced_s") -. 1.0),
      "%" );
    secs "difftest.loop_s";
    secs "xiangshan.self_s";
    ( "xiangshan.kcps",
      ratio (s "xiangshan.cycles") (s "xiangshan.self_s") /. 1e3,
      "kc/s" );
    ( "xiangshan.alloc_words_per_cycle",
      ratio (s "xiangshan.words") (s "xiangshan.cycles"),
      "words/cycle" );
    secs "difftest.self_s";
    ( "difftest.alloc_words_per_cycle",
      ratio (s "difftest.words") (s "difftest.cycles"),
      "words/cycle" );
    count "difftest.commits_checked";
    count "difftest.rule_fires";
    secs "ref_model.self_s";
    ( "ref_model.mips",
      ratio (s "ref_model.insns") (s "ref_model.self_s") /. 1e6,
      "MIPS" );
    count "lightsss.snapshots";
    secs "lightsss.snapshot_s";
    secs "lightsss.restore_s";
    ("lightsss.image_bytes", s "lightsss.image_bytes", "bytes");
    ( "nemu.profile_mips",
      ratio (s "nemu.insns") (s "nemu.self_s") /. 1e6,
      "MIPS" );
    count "nemu.slow_lookups";
    count "nemu.compiled";
    count "nemu.flushes";
    secs "checkpoint.profile_s";
    secs "checkpoint.select_s";
    secs "checkpoint.capture_s";
    ( "checkpoint.sample_s",
      ratio (s "checkpoint.sampling_s") (s "checkpoint.samples"),
      "s" );
    count "checkpoint.samples";
    secs "setup.soc_s";
    secs "setup.difftest_s";
    ( "campaign.cell_s",
      ratio (s "campaign.cell_s") (s "campaign.cells"),
      "s" );
    ("workflow.replay_cycles", s "workflow.replay_cycles", "cycles");
    count "archdb.records";
    per_run "pool.fork_marshal_s";
    per_run "journal.append_s";
    ("topdown.retiring", s "topdown.retiring", "cycles");
    ("topdown.frontend", s "topdown.frontend", "cycles");
    ("topdown.bad_spec", s "topdown.bad_spec", "cycles");
    ("topdown.backend", s "topdown.backend", "cycles");
    count "l1d.misses";
    count "bpu.mispredicts";
  ]

(* Layer quantities that are counts, not host times, must repeat. *)
let same_layers (a : op) (b : op) =
  match same_simulation a b with
  | Some _ as d -> d
  | None ->
      List.find_map
        (fun (name, v) ->
          if Filename.check_suffix name "_s" then None
          else
            match List.assoc_opt name b.layers with
            | Some v' when Float.equal v v' -> None
            | Some _ | None -> Some name)
        a.layers

let span_json ~op (sp : span) ~self =
  sprintf
    "{\"op\": %d, \"id\": %d, \"parent\": %d, \"name\": \"%s\", \"start\": \
     %.6f, \"end\": %.6f, \"dur_s\": %.9f, \"self_s\": %.9f, \"calls\": %d}"
    op sp.sp_id sp.sp_parent sp.sp_name sp.sp_start (sp.sp_start +. sp.sp_dur)
    sp.sp_dur self sp.sp_calls

let traced w ~seconds ~seed =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tally = { attempted = 0; failed = 0; errors = [] } in
  let ops = ref [] in
  passes w ~seconds (fun key ->
      let plain = record tally key (isolated (w.untraced key)) in
      match (plain, record tally key (isolated (w.traced key))) with
      | Some u, Some t ->
          (* the traced op rebuilds the untraced one from the same
             calls: it must simulate the same thing *)
          Option.iter
            (fun what ->
              fail tally (sprintf "%s: traced op differs in %s" key what))
            (if u.cycles <> t.cycles then Some "cycles"
             else if not (Float.equal u.ipc t.ipc) then Some "ipc"
             else None);
          let t =
            {
              t with
              layers = ("op.untraced_s", u.setup_s +. u.run_s) :: t.layers;
            }
          in
          printf "  %-24s traced %7.3f s  untraced %7.3f s\n%!" key
            (List.assoc "op.traced_s" t.layers)
            (u.setup_s +. u.run_s);
          ops := t :: !ops
      | _ -> ());
  let ops = List.rev !ops in
  check_repeats tally ops ~same:same_layers;
  let run_layers =
    try w.run_layers ()
    with e ->
      fail tally ("run layers: " ^ Printexc.to_string e);
      []
  in
  let sum name =
    List.fold_left ( +. ) 0.0
      (per_key w.keys ops (fun o ->
           Option.value (List.assoc_opt name o.layers) ~default:0.0))
  in
  (* spans, written once the run is over *)
  let path =
    Filename.concat out_dir (sprintf "trace-%s-seed%d.jsonl" w.name seed)
  in
  let oc = open_out path in
  let self_by_name = Hashtbl.create 32 in
  List.iteri
    (fun i (o : op) ->
      let selfs = self_times o.spans in
      List.iter
        (fun sp ->
          let self = List.assoc sp.sp_id selfs in
          output_string oc (span_json ~op:i sp ~self);
          output_char oc '\n';
          let prev =
            Option.value (Hashtbl.find_opt self_by_name sp.sp_name) ~default:0.0
          in
          Hashtbl.replace self_by_name sp.sp_name (prev +. self))
        (List.rev o.spans))
    ops;
  close_out oc;
  let metrics = layer_metrics sum run_layers in
  (* self times with their base, over one median pass *)
  let table base names =
    let b = sum base in
    if b > 0.0 then begin
      printf "\nself time per layer, base %s = %.4f s\n" base b;
      List.iter
        (fun name ->
          let v = sum name in
          if v <> 0.0 then
            printf "  %-22s %9.4f s  %6.1f%% of base\n" name v
              (100.0 *. v /. b))
        names
    end
  in
  table "op.traced_s"
    [
      "setup.soc_s";
      "setup.difftest_s";
      "campaign.cell_s";
      "checkpoint.profile_s";
      "checkpoint.select_s";
      "checkpoint.capture_s";
      "checkpoint.sampling_s";
    ];
  table "difftest.loop_s"
    [
      "xiangshan.self_s";
      "difftest.self_s";
      "ref_model.self_s";
      "lightsss.snapshot_s";
    ];
  printf "\nspans in %s; self seconds over the run by span name:\n" path;
  List.iter
    (fun (name, v) -> printf "  %-22s %9.4f s\n" name v)
    (List.sort compare (List.of_seq (Hashtbl.to_seq self_by_name)));
  print_result tally metrics

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME cosim_spec | cosim_system | sampled | campaign" );
      ( "--seed",
        Arg.Set_int seed,
        "N campaign fault seeds N and N+1; the kernels ignore it" );
      ( "--seconds",
        Arg.Set_float seconds,
        "S keep starting ops for S seconds (0: one pass)" );
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end metrics (0) or the traced per-layer run (1)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !seed < 0 || (!trace <> 0 && !trace <> 1) then begin
    eprintf "perfbench: --seed must be 0 or more and --trace 0 or 1\n";
    exit 2
  end;
  match
    List.find_opt (fun w -> w.name = !workload) (workloads ~seed:!seed)
  with
  | None ->
      eprintf "perfbench: unknown workload %S\n" !workload;
      exit 2
  | Some w ->
      printf "%s seed %d, %s\n%!" w.name !seed
        (if !trace = 1 then "traced" else "end to end");
      if !trace = 1 then traced w ~seconds:!seconds ~seed:!seed
      else end_to_end w ~seconds:!seconds
