(* Fault-injection campaign driver (see campaign.mli).

   Each cell is an independent, deterministic co-simulation: the same
   (fault, seed) pair always builds the same program, installs the
   same corruption at the same cycle, and therefore fails the same
   way.  The driver only interprets the Workflow outcome; all the
   detection machinery is the ordinary DiffTest + LightSSS stack. *)

type cell = {
  c_fault : string;
  c_layer : string;
  c_workload : string;
  c_config : string;
  c_seed : int;
  c_trigger : int;
  c_detected : bool;
  c_rule : string;
  c_rule_expected : bool;
  c_failure_cycle : int;
  c_latency_cycles : int;
  c_commits : int;
  c_msg : string;
  c_replayed : bool;
  c_replay_rule : string;
  c_replay_window : int;
  c_replay_within : bool;
  c_ok : bool;
}

type summary = {
  cells : cell list;
  total : int;
  detected : int;
  escapes : int;
  rule_mismatches : int;
  replay_misses : int;
  snapshot_interval : int;
  resumed : int;
  retried : int;
  recovered : int;
}

(* Sv39 steady state: many read-back rounds over the lazily allocated
   heap, no sfence.vma after the first pass -- so a corrupted cached
   translation stays live and must serve loads of data that was
   written through the correct one.  (The stock one-round vm_kernel
   can mask TLB corruption: its spurious-fault sfences re-walk the
   stale entries before the single read-back uses them.) *)
let vm_kernel_steady : Workloads.Wl_common.t =
  {
    Workloads.Wl_common.wl_name = "vm_kernel_steady";
    group = `Int;
    mimics = "Sv39 steady-state paging (fault-campaign variant)";
    program =
      (fun ~scale -> Workloads.Vm_kernel.program ~rounds:50 ~scale ());
    small = 4;
    big = 16;
  }

(* The campaign draws on the whole workload library, not just the
   SPEC-like suite: the system and SMP workloads are what exercise the
   TLB and coherence faults. *)
let catalogue =
  (vm_kernel_steady :: Workloads.Suite.all)
  @ Workloads.Suite.system @ Workloads.Suite.smp

let find_workload name =
  match
    List.find_opt (fun w -> w.Workloads.Wl_common.wl_name = name) catalogue
  with
  | Some w -> w
  | None ->
      invalid_arg (Printf.sprintf "Campaign: unknown workload %S" name)

let config_of = function
  | Fault.Yqh -> Xiangshan.Config.yqh
  | Fault.Nh -> Xiangshan.Config.nh

(* an undetected, unverified cell: the shape every verdict starts from *)
let blank_cell (fault : Fault.t) seed =
  {
    c_fault = fault.Fault.f_name;
    c_layer = fault.Fault.f_layer;
    c_workload = fault.Fault.f_workload;
    c_config = (config_of fault.Fault.f_config).Xiangshan.Config.cfg_name;
    c_seed = seed;
    c_trigger = fault.Fault.f_trigger;
    c_detected = false;
    c_rule = "";
    c_rule_expected = false;
    c_failure_cycle = -1;
    c_latency_cycles = -1;
    c_commits = -1;
    c_msg = "";
    c_replayed = false;
    c_replay_rule = "";
    c_replay_window = -1;
    c_replay_within = false;
    c_ok = false;
  }

let run_cell ?(snapshot_interval = 1_500) ?(max_cycles = 400_000)
    ?(ref_kind = Ref_model.Iss) ?(phase_order = Xiangshan.Core.Default_order)
    ?perf ~(fault : Fault.t) ~seed () : cell =
  let w = find_workload fault.Fault.f_workload in
  let prog = w.Workloads.Wl_common.program ~scale:w.Workloads.Wl_common.small in
  let cfg = config_of fault.Fault.f_config in
  let trigger = fault.Fault.f_trigger in
  let base = blank_cell fault seed in
  match
    Workflow.run_verified ~snapshot_interval ~max_cycles ~ref_kind ?perf
      ~inject:(fun soc ->
        Array.iter
          (fun c -> Xiangshan.Core.set_phase_order c phase_order)
          soc.Xiangshan.Soc.cores;
        fault.Fault.f_install ~seed ~trigger soc)
      ~prog cfg
  with
  | Workflow.Verified code ->
      (* the fault ran to completion undetected: an escape *)
      {
        base with
        c_msg =
          Printf.sprintf "ESCAPE: run verified (exit code %d) despite fault"
            code;
      }
  | Workflow.Debugged r ->
      let f = r.Workflow.first_failure in
      let rule_expected = List.mem f.Rule.f_rule fault.Fault.f_expected_rules in
      let replayed = r.Workflow.replay_failure <> None in
      let window =
        if replayed then f.Rule.f_cycle - r.Workflow.replay_from_cycle else -1
      in
      let within = replayed && window <= 2 * snapshot_interval in
      {
        base with
        c_detected = true;
        c_rule = f.Rule.f_rule;
        c_rule_expected = rule_expected;
        c_failure_cycle = f.Rule.f_cycle;
        c_latency_cycles = f.Rule.f_cycle - trigger;
        c_commits = f.Rule.f_commits;
        c_msg = Rule.string_of_failure f;
        c_replayed = replayed;
        c_replay_rule =
          (match r.Workflow.replay_failure with
          | Some rf -> rf.Rule.f_rule
          | None -> "");
        c_replay_window = window;
        c_replay_within = within;
        c_ok = rule_expected && within;
      }

(* A job failure (exception, worker crash, timeout) means we cannot
   prove the fault was detected, so it reports as an escape-shaped
   cell: c_ok false, c_detected false, the failure message in c_msg. *)
let cell_of_failure (fault, seed) msg =
  { (blank_cell fault seed) with c_msg = "POOL: " ^ msg }

(* The journal key encodes the run's identity: resuming against a
   journal written by a different grid, REF backend or interval set
   must start fresh, never splice foreign cells in. *)
let journal_key ~faults ~seeds ~ref_kind ~snapshot_interval ~max_cycles =
  Printf.sprintf "campaign|faults=%s|seeds=%s|ref=%s|si=%d|mc=%d"
    (String.concat "," (List.map (fun f -> f.Fault.f_name) faults))
    (String.concat "," (List.map string_of_int seeds))
    (Ref_model.kind_name ref_kind)
    snapshot_interval max_cycles

let run ?faults ?(seeds = [ 1; 2 ]) ?(snapshot_interval = 1_500)
    ?(max_cycles = 400_000) ?(ref_kind = Ref_model.Iss) ?phase_order ?perf
    ?jobs ?journal
    ?(resume = false) ?retries ?timeout
    ?(progress = fun (_ : cell) -> ()) () : summary =
  let faults =
    match faults with
    | None -> Fault.all
    | Some names -> List.map Fault.find names
  in
  let grid =
    List.concat_map (fun fault -> List.map (fun seed -> (fault, seed)) seeds)
      faults
  in
  let g =
    Grid.create ?journal ~resume
      ~key:(journal_key ~faults ~seeds ~ref_kind ~snapshot_interval ~max_cycles)
      (fun c -> (c.c_fault, c.c_seed))
  in
  (* one pool job per cell.  The injection trigger cycle is the best
     static proxy for cell cost: later triggers mean more fast-mode
     cycles before detection can even start. *)
  let cells =
    Grid.run g ?jobs ?retries ?timeout ~progress
      ~key:(fun (fault, seed) -> (fault.Fault.f_name, seed))
      ~label:(fun (fault, seed) -> Printf.sprintf "%s#%d" fault.Fault.f_name seed)
      ~cost:(fun (fault, _) -> float_of_int fault.Fault.f_trigger)
      ~of_failure:cell_of_failure
      (fun (fault, seed) ->
        run_cell ~snapshot_interval ~max_cycles ~ref_kind ?phase_order ?perf
          ~fault ~seed ())
      grid
  in
  Grid.close g;
  let count p = List.length (List.filter p cells) in
  {
    cells;
    total = List.length cells;
    detected = count (fun c -> c.c_detected);
    escapes = count (fun c -> not c.c_detected);
    rule_mismatches = count (fun c -> c.c_detected && not c.c_rule_expected);
    replay_misses =
      count (fun c -> c.c_detected && not (c.c_replayed && c.c_replay_within));
    snapshot_interval;
    resumed = Grid.resumed g;
    retried = Grid.retried g;
    recovered = Grid.recovered g;
  }

let failed s = s.escapes > 0 || s.rule_mismatches > 0 || s.replay_misses > 0

(* faults whose cells resolve in a few thousand cycles; enough for CI
   to validate the whole detect->replay->report pipeline *)
let smoke_faults = [ "csr-mtvec-corrupt"; "rob-commit-reorder"; "lsu-sb-drop" ]

let grid_spec ~smoke ~seed =
  if smoke then (Some smoke_faults, [ seed ]) else (None, [ seed; seed + 1 ])

let string_of_cell (c : cell) : string =
  if not c.c_detected then
    Printf.sprintf "%-24s %-16s seed=%d  %s" c.c_fault c.c_workload c.c_seed
      c.c_msg
  else
    Printf.sprintf
      "%-24s %-16s seed=%d  %s by %s at cycle %d (latency %d cycles, %d \
       commits; replay %s in %d-cycle window)"
      c.c_fault c.c_workload c.c_seed
      (if c.c_ok then "caught" else "MISCAUGHT")
      c.c_rule c.c_failure_cycle c.c_latency_cycles c.c_commits
      (if c.c_replayed then "reproduced [" ^ c.c_replay_rule ^ "]"
       else "NOT reproduced")
      c.c_replay_window
