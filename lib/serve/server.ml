(* The `minjie serve` daemon.  See server.mli for the execution
   model. *)

type config = {
  socket_path : string;
  jobs : int;
  queue_depth : int;
  batch_max : int;
  journal_path : string option;
  resume : bool;
  quiet : bool;
}

let default_config ~socket_path =
  {
    socket_path;
    jobs = 1;
    queue_depth = 64;
    batch_max = 2;
    journal_path = None;
    resume = false;
    quiet = false;
  }

(* --- job execution ---------------------------------------------------- *)

let ref_kind_of_string s =
  match Minjie.Ref_model.kind_of_string s with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "serve: unknown REF backend %S" s)

let soc_instrs (soc : Xiangshan.Soc.t) =
  Array.fold_left
    (fun acc (core : Xiangshan.Core.t) ->
      acc + core.Xiangshan.Core.perf.Xiangshan.Core.p_instrs)
    0 soc.Xiangshan.Soc.cores

let exec_spec cache ~jobs (spec : Proto.job_spec) : Proto.job_result =
  match spec with
  | Proto.Run r ->
      let prog = Warm_cache.program cache r.rn_workload in
      let cfg =
        Minjie.Workflow.config_for ~workload:r.rn_workload
          (Warm_cache.config_of_name r.rn_config)
      in
      let ref_kind = ref_kind_of_string r.rn_ref in
      let soc = Xiangshan.Soc.create cfg in
      Xiangshan.Soc.load_program soc prog;
      let dt = Minjie.Difftest.create ~ref_kind ~prog soc in
      let status = Minjie.Workflow.drive ~max_cycles:r.rn_max_cycles dt in
      let rr_status =
        match status with
        | Minjie.Difftest.Finished c -> Proto.Rs_finished c
        | Minjie.Difftest.Failed f ->
            Proto.Rs_failed
              {
                rf_rule = f.Minjie.Rule.f_rule;
                rf_cycle = f.Minjie.Rule.f_cycle;
                rf_msg = f.Minjie.Rule.f_msg;
              }
        | Minjie.Difftest.Running -> Proto.Rs_timeout
      in
      Proto.R_run
        {
          rr_status;
          rr_cycles = soc.Xiangshan.Soc.now;
          rr_instrs = soc_instrs soc;
          rr_commits = Minjie.Difftest.commits_checked dt;
          rr_rules = Minjie.Difftest.rule_fire_counts dt;
        }
  | Proto.Engine e ->
      let w = Warm_cache.engine cache e.en_workload in
      let insns = Nemu.Engine.warm_run w ~max_insns:e.en_max_insns in
      let m = Nemu.Engine.warm_mach w in
      Proto.R_engine
        {
          re_insns = insns;
          re_exit = Nemu.Mach.exit_code m;
          re_digest = Nemu.Mach.arch_state_digest m;
        }
  | Proto.Checkpoint c ->
      let cfg = Warm_cache.config_of_name c.ck_config in
      let cks, stats =
        Warm_cache.checkpoints cache ~workload:c.ck_workload
          ~interval:c.ck_interval ~max_k:c.ck_max_k
      in
      let results =
        Checkpoint.Sampled.simulate_all ~warmup:c.ck_warmup
          ~measure:c.ck_measure ~jobs cfg cks
      in
      Proto.R_checkpoint
        {
          rc_intervals = stats.Checkpoint.Sampled.gen_intervals;
          rc_selected = stats.Checkpoint.Sampled.gen_selected;
          rc_samples =
            List.map
              (fun (s : Checkpoint.Sampled.sample_result) ->
                {
                  Proto.sa_index = s.Checkpoint.Sampled.sr_index;
                  sa_weight = s.Checkpoint.Sampled.sr_weight;
                  sa_instructions = s.Checkpoint.Sampled.sr_instructions;
                  sa_cycles = s.Checkpoint.Sampled.sr_cycles;
                })
              results;
          rc_weighted_ipc = Checkpoint.Sampled.weighted_ipc results;
        }
  | Proto.Campaign c ->
      let faults = match c.ca_faults with [] -> None | fs -> Some fs in
      let seeds = match c.ca_seeds with [] -> None | ss -> Some ss in
      let ref_kind = ref_kind_of_string c.ca_ref in
      let s = Minjie.Campaign.run ?faults ?seeds ~ref_kind ~jobs () in
      Proto.R_campaign
        {
          rca_total = s.Minjie.Campaign.total;
          rca_detected = s.Minjie.Campaign.detected;
          rca_escapes = s.Minjie.Campaign.escapes;
          rca_cells =
            List.map Minjie.Campaign.string_of_cell s.Minjie.Campaign.cells;
        }
  | Proto.Fuzz f ->
      let p =
        {
          Fuzz.smoke with
          Fuzz.fz_seed = f.fu_seed;
          fz_rounds = max 1 f.fu_rounds;
          fz_cands = max 1 f.fu_cands;
          fz_refs =
            (if f.fu_ref = "" then Fuzz.smoke.Fuzz.fz_refs
             else [ ref_kind_of_string f.fu_ref ]);
        }
      in
      let s = Fuzz.run ~p ~jobs () in
      Proto.R_fuzz
        {
          rfz_rounds = List.length s.Fuzz.fz_round_stats;
          rfz_points = s.Fuzz.fz_points;
          rfz_cells = s.Fuzz.fz_cells;
          rfz_corpus = s.Fuzz.fz_corpus;
          rfz_execs = List.length s.Fuzz.fz_execs;
          rfz_mismatches = s.Fuzz.fz_mismatches;
          rfz_round_lines =
            List.map Fuzz.string_of_round s.Fuzz.fz_round_stats;
        }
  | Proto.Topdown t ->
      let prog = Warm_cache.program cache t.td_workload in
      let cfg =
        Minjie.Workflow.config_for ~workload:t.td_workload
          (Warm_cache.config_of_name t.td_config)
      in
      let soc = Xiangshan.Soc.create cfg in
      Xiangshan.Soc.load_program soc prog;
      let _ = Xiangshan.Soc.run ~max_cycles:t.td_max_cycles soc in
      Proto.R_topdown
        {
          rt_cycles = soc.Xiangshan.Soc.now;
          rt_instrs = soc_instrs soc;
          rt_counters =
            Xiangshan.Core.counter_snapshot soc.Xiangshan.Soc.cores.(0);
        }
  | Proto.Sleep s ->
      Unix.sleepf s.sl_seconds;
      Proto.R_sleep { rs_tag = s.sl_tag }

let exec cache ~jobs spec =
  try exec_spec cache ~jobs spec with
  | e -> Proto.R_error (Printexc.to_string e)

let exec_cold ?(jobs = 1) spec = exec (Warm_cache.create ()) ~jobs spec

(* Resolve a spec's warm dependencies in the server process so (a) the
   expensive state is built exactly once and stays resident, and (b)
   forked pool workers inherit it copy-on-write.  Returns whether all
   of the spec's warm state was already resident (the job is "warm"). *)
let prefetch cache (spec : Proto.job_spec) =
  let h0 = Warm_cache.hits cache in
  let m0 = Warm_cache.misses cache in
  (match spec with
  | Proto.Run r -> ignore (Warm_cache.program cache r.rn_workload)
  | Proto.Topdown t -> ignore (Warm_cache.program cache t.td_workload)
  | Proto.Engine e -> ignore (Warm_cache.engine cache e.en_workload)
  | Proto.Checkpoint c ->
      ignore
        (Warm_cache.checkpoints cache ~workload:c.ck_workload
           ~interval:c.ck_interval ~max_k:c.ck_max_k)
  | Proto.Campaign _ | Proto.Fuzz _ | Proto.Sleep _ -> ());
  Warm_cache.hits cache > h0 && Warm_cache.misses cache = m0

(* --- server state ----------------------------------------------------- *)

type client = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_accum : Proto.Accum.t;
  c_queue : pending Queue.t;
  mutable c_alive : bool;
}

and pending = { p_id : int; p_spec : Proto.job_spec; p_client : client option }

type jrec = J_acc of int * Proto.job_spec | J_done of int * Proto.job_result

let journal_key = "serve-queue-v1"

(* accepted-but-unfinished jobs, in acceptance order: what a restarted
   server must re-run *)
let pending_of_records (records : jrec list) =
  let done_ids = Hashtbl.create 64 in
  List.iter
    (function J_done (id, _) -> Hashtbl.replace done_ids id () | J_acc _ -> ())
    records;
  List.filter_map
    (function
      | J_acc (id, spec) when not (Hashtbl.mem done_ids id) -> Some (id, spec)
      | _ -> None)
    records

type state = {
  cfg : config;
  cache : Warm_cache.t;
  ewma : Warm_cache.Ewma.t;
  mutable clients : client list;  (** connection order; newest last *)
  mutable rr_cursor : int;  (** round-robin start offset across clients *)
  mutable next_id : int;
  mutable jobs_done : int;
  mutable stop : bool;
  journal : Minjie.Journal.t option;
}

let log state fmt =
  Printf.ksprintf
    (fun s -> if not state.cfg.quiet then Printf.eprintf "[serve] %s\n%!" s)
    fmt

let journal_append state (r : jrec) =
  match state.journal with
  | Some j when Minjie.Journal.active j -> Minjie.Journal.append j r
  | _ -> ()

let queued_total state =
  List.fold_left (fun acc c -> acc + Queue.length c.c_queue) 0 state.clients

let send_reply state client (reply : Proto.reply) =
  if client.c_alive then
    try Proto.write_frame client.c_fd (Proto.reply_to_bytes reply) with
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        (* the client left; its jobs still ran and were journaled *)
        client.c_alive <- false;
        (try Unix.close client.c_fd with Unix.Unix_error _ -> ());
        log state "client %d vanished; dropped a reply" client.c_id

let close_client state client =
  if client.c_alive then begin
    client.c_alive <- false;
    try Unix.close client.c_fd with Unix.Unix_error _ -> ()
  end;
  (* keep the client record while it still has queued jobs: they run
     to completion (and are journaled); only the replies are dropped *)
  if Queue.is_empty client.c_queue then
    state.clients <- List.filter (fun c -> c != client) state.clients

(* --- batch execution -------------------------------------------------- *)

let default_cost (spec : Proto.job_spec) =
  (* static priors, only the ordering matters: campaigns dwarf
     everything, checkpoint > run/topdown > engine > sleep *)
  match spec with
  | Proto.Campaign _ -> 64.0
  | Proto.Fuzz _ -> 64.0
  | Proto.Checkpoint _ -> 16.0
  | Proto.Run _ -> 4.0
  | Proto.Topdown _ -> 4.0
  | Proto.Engine _ -> 1.0
  | Proto.Sleep s -> s.sl_seconds

(* [secs] is the job's own runtime, which feeds the EWMA; [None] for a
   job whose worker died before reporting one *)
let finish_job state (p : pending) ~warm ~secs (result : Proto.job_result) =
  state.jobs_done <- state.jobs_done + 1;
  Option.iter
    (Warm_cache.Ewma.observe state.ewma (Proto.class_key p.p_spec))
    secs;
  journal_append state (J_done (p.p_id, result));
  (match p.p_client with
  | Some c ->
      send_reply state c
        (Proto.Result { r_id = p.p_id; r_warm = warm; r_result = result })
  | None -> ());
  log state "job %d %s%s (%s)" p.p_id
    (match secs with
    | Some s -> Printf.sprintf "done in %.3fs" s
    | None -> "failed")
    (if warm then " [warm]" else "")
    (Proto.describe p.p_spec)

(* Jobs whose warm state lives in this process (decoded superblocks,
   generated checkpoints) run here so the state accumulates;
   everything else forks, for crash isolation. *)
let runs_in_parent = function
  | Proto.Engine _ | Proto.Checkpoint _ -> true
  | Proto.Run _ | Proto.Campaign _ | Proto.Fuzz _ | Proto.Topdown _
  | Proto.Sleep _ ->
      false

let run_batch state (batch : pending list) =
  (* coalesce: jobs sharing warm state run back-to-back *)
  let batch =
    List.stable_sort
      (fun a b ->
        compare (Proto.warm_key a.p_spec) (Proto.warm_key b.p_spec))
      batch
  in
  let parent_jobs, pool_jobs = List.partition (fun p -> runs_in_parent p.p_spec) batch in
  (* prefetch every job's warm dependencies in the parent: pool
     workers inherit them copy-on-write at fork *)
  let warmth =
    List.map (fun p -> (p.p_id, prefetch state.cache p.p_spec)) batch
  in
  let was_warm id = try List.assoc id warmth with Not_found -> false in
  (* each job reports its pending's index and the seconds it ran; a job
     whose worker died reports no seconds *)
  let run_grid ~isolate ~jobs ~exec_jobs pendings =
    let arr = Array.of_list pendings in
    ignore
      (Minjie.Grid.run
         (Minjie.Grid.create ~key:"" ignore)
         ~jobs ~isolate
         ~progress:(fun (i, secs, result) ->
           finish_job state arr.(i) ~warm:(was_warm arr.(i).p_id) ~secs result)
         ~key:ignore
         ~label:(fun i -> Printf.sprintf "job-%d" arr.(i).p_id)
         ~cost:(fun i ->
           Warm_cache.Ewma.expect state.ewma
             (Proto.class_key arr.(i).p_spec)
             ~default:(default_cost arr.(i).p_spec))
         ~of_failure:(fun i msg -> (i, None, Proto.R_error msg))
         (fun i ->
           let t0 = Unix.gettimeofday () in
           let result = exec state.cache ~jobs:exec_jobs arr.(i).p_spec in
           (i, Some (Unix.gettimeofday () -. t0), result))
         (List.init (Array.length arr) Fun.id))
  in
  (* in-process, in warm-key order; then forked, even at one worker *)
  run_grid ~isolate:false ~jobs:1 ~exec_jobs:state.cfg.jobs parent_jobs;
  run_grid ~isolate:true ~jobs:state.cfg.jobs ~exec_jobs:1 pool_jobs

(* Build a batch round-robin across clients: starting from a rotating
   cursor, take one queued job per live-or-draining client per pass
   until the batch is full or queues are empty. *)
let build_batch state =
  let clients = Array.of_list state.clients in
  let n = Array.length clients in
  if n = 0 then []
  else begin
    let batch = ref [] and taken = ref 0 and progress = ref true in
    while !taken < state.cfg.batch_max && !progress do
      progress := false;
      for i = 0 to n - 1 do
        if !taken < state.cfg.batch_max then begin
          let c = clients.((state.rr_cursor + i) mod n) in
          match Queue.take_opt c.c_queue with
          | Some p ->
              batch := p :: !batch;
              incr taken;
              progress := true
          | None -> ()
        end
      done
    done;
    state.rr_cursor <- (state.rr_cursor + 1) mod max 1 n;
    (* drop clients that disconnected and have now fully drained *)
    state.clients <-
      List.filter
        (fun c -> c.c_alive || not (Queue.is_empty c.c_queue))
        state.clients;
    List.rev !batch
  end

(* --- request handling ------------------------------------------------- *)

let handle_request state client (req : Proto.request) =
  match req with
  | Proto.Ping ->
      send_reply state client
        (Proto.Pong { p_jobs = state.cfg.jobs; p_queued = queued_total state })
  | Proto.Stats ->
      send_reply state client
        (Proto.Stats_reply
           {
             st_jobs_done = state.jobs_done;
             st_warm_hits = Warm_cache.hits state.cache;
             st_warm_misses = Warm_cache.misses state.cache;
             st_queue_depth = queued_total state;
             st_clients =
               List.length (List.filter (fun c -> c.c_alive) state.clients);
             st_ewma = Warm_cache.Ewma.snapshot state.ewma;
           })
  | Proto.Shutdown ->
      state.stop <- true;
      log state "shutdown requested by client %d" client.c_id;
      send_reply state client Proto.Shutting_down
  | Proto.Submit spec ->
      if state.stop then send_reply state client Proto.Shutting_down
      else if queued_total state >= state.cfg.queue_depth then
        send_reply state client (Proto.Busy { b_depth = state.cfg.queue_depth })
      else begin
        let id = state.next_id in
        state.next_id <- id + 1;
        journal_append state (J_acc (id, spec));
        Queue.add { p_id = id; p_spec = spec; p_client = Some client } client.c_queue;
        log state "job %d accepted from client %d (%s)" id client.c_id
          (Proto.describe spec)
      end

let drain_client state client =
  let chunk = Bytes.create 65536 in
  let rec read_once () =
    match Unix.read client.c_fd chunk 0 (Bytes.length chunk) with
    | 0 -> close_client state client  (* clean EOF *)
    | n -> Proto.Accum.feed client.c_accum chunk n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_once ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_client state client
  in
  read_once ();
  let rec frames () =
    if client.c_alive then
      match Proto.Accum.next client.c_accum with
      | None -> ()
      | Some (Error msg) ->
          (* malformed stream: tell the client why, then hang up; the
             server itself stays healthy *)
          send_reply state client (Proto.Err ("protocol error: " ^ msg));
          close_client state client;
          log state "client %d sent a malformed frame: %s" client.c_id msg
      | Some (Ok payload) -> (
          match Proto.request_of_payload payload with
          | req ->
              handle_request state client req;
              frames ()
          | exception Proto.Frame_error msg ->
              send_reply state client (Proto.Err ("protocol error: " ^ msg));
              close_client state client)
  in
  frames ()

(* --- socket lifecycle ------------------------------------------------- *)

let bind_socket path =
  if Sys.file_exists path then begin
    (* a live server owns this path; a stale socket from a dead one is
       safe to unlink *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      try
        Unix.connect probe (Unix.ADDR_UNIX path);
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith (Printf.sprintf "serve: %s already has a live server" path);
    Sys.remove path
  end;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let serve (cfg : config) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let journal, replayed =
    match cfg.journal_path with
    | None -> (None, [])
    | Some path ->
        if not cfg.resume then (try Sys.remove path with Sys_error _ -> ());
        let j, (records : jrec list) =
          Minjie.Journal.open_ ~path ~key:journal_key
        in
        (Some j, records)
  in
  let state =
    {
      cfg;
      cache = Warm_cache.create ();
      ewma = Warm_cache.Ewma.create ();
      clients = [];
      rr_cursor = 0;
      next_id = 0;
      jobs_done = 0;
      stop = false;
      journal;
    }
  in
  (* crash recovery: re-run jobs that were accepted but never finished
     before the previous server died.  Their clients are long gone, so
     results go only to the journal. *)
  List.iter
    (function
      | J_acc (id, _) -> if id >= state.next_id then state.next_id <- id + 1
      | J_done _ -> ())
    replayed;
  let orphans =
    List.map
      (fun (id, spec) -> { p_id = id; p_spec = spec; p_client = None })
      (pending_of_records replayed)
  in
  let listen_fd = bind_socket cfg.socket_path in
  let cleanup () =
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (try Sys.remove cfg.socket_path with Sys_error _ -> ());
    match state.journal with
    | Some j -> (try Minjie.Journal.close j with _ -> ())
    | None -> ()
  in
  Minjie.Pool.at_shutdown cleanup;
  if orphans <> [] then begin
    log state "resuming %d journaled job(s) from the previous server"
      (List.length orphans);
    run_batch state orphans
  end;
  log state "listening on %s (jobs %d, queue depth %d, batch %d)"
    cfg.socket_path cfg.jobs cfg.queue_depth cfg.batch_max;
  let next_client_id = ref 0 in
  (try
     while not (state.stop && queued_total state = 0) do
       let client_fds =
         List.filter_map
           (fun c -> if c.c_alive then Some c.c_fd else None)
           state.clients
       in
       let readable, _, _ =
         try Unix.select (listen_fd :: client_fds) [] [] 1.0
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       (* accept every pending connection *)
       if List.mem listen_fd readable then begin
         let rec accept_all () =
           match Unix.accept listen_fd with
           | fd, _ ->
               let c =
                 {
                   c_id = !next_client_id;
                   c_fd = fd;
                   c_accum = Proto.Accum.create ();
                   c_queue = Queue.create ();
                   c_alive = true;
                 }
               in
               incr next_client_id;
               state.clients <- state.clients @ [ c ];
               accept_all ()
           | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
             ->
               ()
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_all ()
         in
         accept_all ()
       end;
       List.iter
         (fun c ->
           if c.c_alive && List.mem c.c_fd readable then drain_client state c)
         state.clients;
       match build_batch state with
       | [] -> ()
       | batch -> run_batch state batch
     done
   with e ->
     cleanup ();
     raise e);
  log state "served %d job(s); shutting down" state.jobs_done;
  List.iter (fun c -> close_client state c) state.clients;
  cleanup ();
  0
