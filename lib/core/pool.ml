(* Fork-based parallel simulation pool (see pool.mli).

   One forked child per job, at most [jobs] alive at once.  The child
   inherits the parent's whole heap copy-on-write -- loaded programs,
   decoded superblocks, workload caches -- so there is no per-job
   setup cost beyond the fork itself, and no result is ever shared
   back implicitly: the only channel is one pipe carrying a single
   marshalled [('r, string) result] value.

   The parent runs a select loop over the live pipes: it drains bytes
   as they arrive (a worker's write can be split across pipe-buffer
   chunks), treats EOF as job completion, reaps the child with an
   EINTR-safe waitpid, and only then decodes the buffer.  Anything
   abnormal -- non-zero exit, death by signal, short or undecodable
   buffer -- becomes that job's own [Crashed] outcome; the pool keeps
   going. *)

type 'r job = { j_label : string; j_cost : float; j_run : unit -> 'r }

type 'r outcome =
  | Done of 'r
  | Job_error of string
  | Crashed of string
  | Timed_out of float

type 'r result = {
  r_index : int;
  r_label : string;
  r_outcome : 'r outcome;
  r_seconds : float;
  r_slot : int;
}

type slot_stats = { s_jobs : int; s_seconds : float }

type stats = {
  p_workers : int;
  p_seconds : float;
  p_slots : slot_stats array;
  p_crashed : int;
  p_timed_out : int;
}

let host_cores () =
  try
    let ic = open_in "/proc/cpuinfo" in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.length line >= 9 && String.sub line 0 9 = "processor" then
           incr n
       done
     with End_of_file -> ());
    close_in ic;
    max 1 !n
  with Sys_error _ -> 1

let now () = Unix.gettimeofday ()

(* ---------------------------------------------------------------- *)
(* EINTR-/short-transfer-safe primitives.  Every read and write on a
   worker pipe goes through these wrappers: they retry on EINTR
   (real or synthetic -- Host_chaos raises ahead of the syscall when
   an EINTR storm is armed) and tolerate partial transfers, so a
   Marshal frame split across short writes still arrives whole.      *)
(* ---------------------------------------------------------------- *)

let rec waitpid_retry pid =
  match
    Host_chaos.pipe_io_interrupt ();
    Unix.waitpid [] pid
  with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let select_retry fds tmo =
  try
    let r, _, _ = Unix.select fds [] [] tmo in
    r
  with Unix.Unix_error (Unix.EINTR, _, _) -> []

let rec write_all fd bytes off len =
  if len > 0 then begin
    match
      Host_chaos.pipe_io_interrupt ();
      Unix.write fd bytes off (Host_chaos.clamp_write len)
    with
    | n -> write_all fd bytes (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        write_all fd bytes off len
  end

(* ---------------------------------------------------------------- *)
(* live-worker registry: every forked worker pid, so the SIGINT/SIGTERM
   shutdown handler (install_signal_handlers, below) can kill the
   whole brood and leave no orphans                                  *)
(* ---------------------------------------------------------------- *)

let live_pids : (int, unit) Hashtbl.t = Hashtbl.create 16

let live_worker_pids () = Hashtbl.fold (fun pid () acc -> pid :: acc) live_pids []

let kill_live_workers () =
  let pids = live_worker_pids () in
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    pids;
  if pids <> [] then Unix.sleepf 0.05;
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (* reap so the worker cannot linger as a zombie past our exit *)
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      Hashtbl.remove live_pids pid)
    pids

let cleanups : (unit -> unit) list ref = ref []

let at_shutdown f = cleanups := f :: !cleanups

let shutdown ~code ~signal_name =
  (* forked children reset the handlers to Signal_default (see
     [worker]), so only the original process tears the world down *)
  kill_live_workers ();
  List.iter (fun f -> try f () with _ -> ()) !cleanups;
  Printf.eprintf "interrupted (%s); workers killed, state flushed\n%!"
    signal_name;
  (try flush stdout with Sys_error _ -> ());
  (try flush stderr with Sys_error _ -> ());
  Unix._exit code

let install_signal_handlers () =
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle (fun _ -> shutdown ~code:130 ~signal_name:"SIGINT"));
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> shutdown ~code:143 ~signal_name:"SIGTERM"))

(* ---------------------------------------------------------------- *)
(* sequential path: jobs = 1 -- the pre-pool in-process code path    *)
(* ---------------------------------------------------------------- *)

let map_sequential ~progress jobs_list =
  let t0 = now () in
  let busy = ref 0.0 in
  let results =
    List.mapi
      (fun i j ->
        let s0 = now () in
        let outcome =
          try Done (j.j_run ())
          with e -> Job_error (Printexc.to_string e)
        in
        let secs = now () -. s0 in
        busy := !busy +. secs;
        let r =
          {
            r_index = i;
            r_label = j.j_label;
            r_outcome = outcome;
            r_seconds = secs;
            r_slot = 0;
          }
        in
        progress r;
        r)
      jobs_list
  in
  ( results,
    {
      p_workers = 1;
      p_seconds = now () -. t0;
      p_slots = [| { s_jobs = List.length jobs_list; s_seconds = !busy } |];
      p_crashed = 0;
      p_timed_out = 0;
    } )

(* ---------------------------------------------------------------- *)
(* parallel path                                                     *)
(* ---------------------------------------------------------------- *)

type 'r active = {
  a_index : int;
  a_label : string;
  a_pid : int;
  a_fd : Unix.file_descr;
  a_buf : Buffer.t;
  a_start : float;
  a_slot : int;
  mutable a_deadline : float;
  mutable a_termed : bool;  (* SIGTERM already sent *)
  mutable a_timed_out : bool;
}

(* The worker body: run the job, marshal an [('r, string) result] to
   the pipe, and _exit without running the parent's at_exit chain
   (which would re-flush inherited channel buffers).  A result that
   cannot be marshalled (closures, custom blocks) is reported as the
   job's error rather than tearing the pipe mid-write. *)
let worker ~attempt wr job =
  (* if the parent is gone the write must fail with EPIPE (handled
     below), not kill us through the default SIGPIPE action *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* the parent's SIGINT/SIGTERM handlers (shutdown cleanup) must not
     run here: a worker dies plainly so the parent's SIGTERM->SIGKILL
     escalation works as designed *)
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  Sys.set_signal Sys.sigint Sys.Signal_default;
  (* host-chaos worker fates (no-ops unless a chaos plan is armed) *)
  (match Host_chaos.worker_fate ~label:job.j_label ~attempt with
  | Host_chaos.Run -> ()
  | Host_chaos.Kill_before_run -> Unix.kill (Unix.getpid ()) Sys.sigkill
  | Host_chaos.Die_mid_write ->
      (* a torn result frame: a few bytes, then death mid-write *)
      let junk = Bytes.of_string "torn!" in
      (try write_all wr junk 0 (Bytes.length junk)
       with Unix.Unix_error _ -> ());
      Unix.kill (Unix.getpid ()) Sys.sigkill
  | Host_chaos.Stall secs -> Unix.sleepf secs);
  let payload =
    try Ok (job.j_run ()) with e -> Error (Printexc.to_string e)
  in
  let bytes =
    match payload with
    | Error _ -> Marshal.to_bytes payload []
    | Ok _ -> (
        try Marshal.to_bytes payload []
        with e ->
          Marshal.to_bytes
            (Error
               (Printf.sprintf "result of %S is not marshallable: %s"
                  job.j_label (Printexc.to_string e)))
            [])
  in
  (try write_all wr bytes 0 (Bytes.length bytes)
   with Unix.Unix_error _ -> () (* parent gone; nothing to report to *));
  (try Unix.close wr with Unix.Unix_error _ -> ());
  Unix._exit 0

let spawn ~timeout ~attempt index slot (job : 'r job) :
    'r active =
  let rd, wr = Unix.pipe () in
  (* the child inherits channel buffers; empty them first so nothing
     is printed twice *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      worker ~attempt wr job
  | pid ->
      Unix.close wr;
      Unix.set_nonblock rd;
      Hashtbl.replace live_pids pid ();
      {
        a_index = index;
        a_label = job.j_label;
        a_pid = pid;
        a_fd = rd;
        a_buf = Buffer.create 4096;
        a_start = now ();
        a_slot = slot;
        a_deadline = now () +. timeout;
        a_termed = false;
        a_timed_out = false;
      }

(* Drain whatever the pipe has; true on EOF.  EINTR (real or a chaos
   storm) retries; a short read just comes back for more. *)
let drain a =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match
      Host_chaos.pipe_io_interrupt ();
      Unix.read a.a_fd chunk 0 (Bytes.length chunk)
    with
    | 0 -> true
    | n ->
        Buffer.add_subbytes a.a_buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let decode_result (a : 'r active) status : 'r outcome =
  if a.a_timed_out then Timed_out (now () -. a.a_start)
  else
    match status with
    | Unix.WEXITED 0 -> (
        let b = Buffer.to_bytes a.a_buf in
        if Bytes.length b < Marshal.header_size then
          Crashed
            (Printf.sprintf "worker for %S returned a truncated result"
               a.a_label)
        else
          match (Marshal.from_bytes b 0 : ('r, string) Stdlib.result) with
          | Ok r -> Done r
          | Error msg -> Job_error msg
          | exception _ ->
              Crashed
                (Printf.sprintf "worker for %S returned an undecodable result"
                   a.a_label))
    | Unix.WEXITED c ->
        Crashed (Printf.sprintf "worker for %S exited with code %d" a.a_label c)
    | Unix.WSIGNALED s ->
        Crashed (Printf.sprintf "worker for %S killed by signal %d" a.a_label s)
    | Unix.WSTOPPED s ->
        Crashed (Printf.sprintf "worker for %S stopped by signal %d" a.a_label s)

let map ?(jobs = 1) ?timeout ?(kill_grace = 2.0) ?(attempt = 0)
    ?(isolate = false) ?(progress = fun _ -> ())
    (jobs_list : 'r job list) : 'r result list * stats =
  let workers = max 1 jobs in
  if workers <= 1 && not isolate then map_sequential ~progress jobs_list
  else begin
    let t0 = now () in
    (* trim the heap before the first fork: children inherit every
       parent page copy-on-write, and their own GCs re-dirty whatever
       the parent left fragmented -- compacting once here is paid
       once, not once per worker *)
    Gc.compact ();
    let n = List.length jobs_list in
    let timeout = Option.value timeout ~default:infinity in
    (* longest-expected-first, ties broken by submission order *)
    let queue =
      ref
        (List.stable_sort
           (fun (i1, j1) (i2, j2) ->
             match compare j2.j_cost j1.j_cost with
             | 0 -> compare i1 i2
             | c -> c)
           (List.mapi (fun i j -> (i, j)) jobs_list))
    in
    let free = ref (List.init workers Fun.id) in
    let active = ref ([] : 'r active list) in
    let results : 'r result option array = Array.make n None in
    let slot_jobs = Array.make workers 0 in
    let slot_secs = Array.make workers 0.0 in
    let crashed = ref 0 and timed_out = ref 0 in
    let finish a =
      (try Unix.close a.a_fd with Unix.Unix_error _ -> ());
      let status = waitpid_retry a.a_pid in
      Hashtbl.remove live_pids a.a_pid;
      let secs = now () -. a.a_start in
      let outcome = decode_result a status in
      (match outcome with
      | Crashed _ -> incr crashed
      | Timed_out _ -> incr timed_out
      | Done _ | Job_error _ -> ());
      let r =
        {
          r_index = a.a_index;
          r_label = a.a_label;
          r_outcome = outcome;
          r_seconds = secs;
          r_slot = a.a_slot;
        }
      in
      results.(a.a_index) <- Some r;
      slot_jobs.(a.a_slot) <- slot_jobs.(a.a_slot) + 1;
      slot_secs.(a.a_slot) <- slot_secs.(a.a_slot) +. secs;
      active := List.filter (fun x -> x.a_pid <> a.a_pid) !active;
      free := a.a_slot :: !free;
      progress r
    in
    while !queue <> [] || !active <> [] do
      (* fill free worker slots *)
      while !queue <> [] && !free <> [] do
        match (!queue, !free) with
        | (i, j) :: qrest, slot :: frest ->
            queue := qrest;
            free := frest;
            active := spawn ~timeout ~attempt i slot j :: !active
        | _ -> assert false
      done;
      (* wait for output or the nearest deadline *)
      let next_deadline =
        List.fold_left (fun m a -> min m a.a_deadline) infinity !active
      in
      let tmo =
        let d = next_deadline -. now () in
        if d = infinity then 0.2 else Float.max 0.0 (Float.min 0.2 d)
      in
      let ready = select_retry (List.map (fun a -> a.a_fd) !active) tmo in
      List.iter
        (fun fd ->
          match List.find_opt (fun a -> a.a_fd = fd) !active with
          | Some a -> if drain a then finish a
          | None -> ())
        ready;
      (* timeout enforcement: TERM first, KILL after the grace period *)
      List.iter
        (fun a ->
          if now () >= a.a_deadline then
            if not a.a_termed then begin
              a.a_termed <- true;
              a.a_timed_out <- true;
              a.a_deadline <- now () +. kill_grace;
              try Unix.kill a.a_pid Sys.sigterm
              with Unix.Unix_error _ -> ()
            end
            else begin
              a.a_deadline <- infinity;
              try Unix.kill a.a_pid Sys.sigkill
              with Unix.Unix_error _ -> ()
            end)
        !active
    done;
    let results =
      Array.to_list results
      |> List.map (function
           | Some r -> r
           | None -> assert false (* every submitted job was finished *))
    in
    ( results,
      {
        p_workers = workers;
        p_seconds = now () -. t0;
        p_slots =
          Array.init workers (fun i ->
              { s_jobs = slot_jobs.(i); s_seconds = slot_secs.(i) });
        p_crashed = !crashed;
        p_timed_out = !timed_out;
      } )
  end
