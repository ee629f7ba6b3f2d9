(* Retry/backoff supervision over Pool (see supervisor.mli). *)

type policy = {
  sp_retries : int;
  sp_backoff_base : float;
  sp_backoff_cap : float;
  sp_mem_limit_mb : int option;
  sp_shrink_after : int;
}

let default_policy =
  {
    sp_retries = 1;
    sp_backoff_base = 0.05;
    sp_backoff_cap = 2.0;
    sp_mem_limit_mb = None;
    sp_shrink_after = 3;
  }

type report = {
  sup_rounds : int;
  sup_retried : int;
  sup_recovered : int;
  sup_deterministic : int;
  sup_gave_up : int;
  sup_shrinks : int;
  sup_final_workers : int;
}

(* A failure's identity for reproduce-and-compare classification.
   Timed_out deliberately drops the elapsed seconds -- two timeouts of
   the same job are the same failure even if the clock differs. *)
let signature (o : 'r Pool.outcome) =
  match o with
  | Pool.Done _ -> "done"
  | Pool.Job_error msg -> "error:" ^ msg
  | Pool.Crashed msg -> "crash:" ^ msg
  | Pool.Timed_out _ -> "timeout"

(* Crashes and timeouts took a whole process down (or needed a kill);
   their retries must stay fork-isolated even at one worker.  A plain
   job exception is safe to re-run in-process. *)
let needs_isolation (o : 'r Pool.outcome) =
  match o with
  | Pool.Crashed _ | Pool.Timed_out _ -> true
  | Pool.Done _ | Pool.Job_error _ -> false

let crashes_in results =
  List.length
    (List.filter
       (fun r ->
         match r.Pool.r_outcome with Pool.Crashed _ -> true | _ -> false)
       results)

let map ?(jobs = 1) ?timeout ?(policy = default_policy) ?(progress = fun _ -> ())
    (job_list : 'r Pool.job list) : 'r Pool.result list * Pool.stats * report
    =
  let n = List.length job_list in
  let jobs_arr = Array.of_list job_list in
  let final : 'r Pool.result option array = Array.make n None in
  let sigs = Array.make n "" in
  let isolate_flags = Array.make n false in
  let workers = ref (max 1 jobs) in
  let retried = ref 0
  and recovered = ref 0
  and deterministic = ref 0
  and gave_up = ref 0
  and shrinks = ref 0
  and rounds = ref 0 in
  let shrink_if_needed results =
    if crashes_in results >= policy.sp_shrink_after && !workers > 1 then begin
      workers := max 1 (!workers / 2);
      incr shrinks;
      Printf.eprintf
        "supervisor: repeated worker deaths; shrinking pool to %d worker%s\n%!"
        !workers
        (if !workers = 1 then "" else "s")
    end
  in
  (* round 0: the whole grid at full width *)
  let results0, stats =
    Pool.map ~jobs:!workers ?timeout ~attempt:0
      ?mem_limit_mb:policy.sp_mem_limit_mb
      ~progress:(fun r ->
        match r.Pool.r_outcome with Pool.Done _ -> progress r | _ -> ())
      job_list
  in
  let pending = ref [] in
  List.iter
    (fun (r : 'r Pool.result) ->
      match r.Pool.r_outcome with
      | Pool.Done _ -> final.(r.Pool.r_index) <- Some r
      | o ->
          if policy.sp_retries = 0 then begin
            final.(r.Pool.r_index) <- Some r;
            progress r
          end
          else begin
            sigs.(r.Pool.r_index) <- signature o;
            isolate_flags.(r.Pool.r_index) <- needs_isolation o;
            pending := r.Pool.r_index :: !pending
          end)
    results0;
  shrink_if_needed results0;
  (* retry rounds: failed jobs only, at the (possibly shrunk) width *)
  let attempt = ref 1 in
  while !pending <> [] && !attempt <= policy.sp_retries do
    incr rounds;
    let backoff =
      min policy.sp_backoff_cap
        (policy.sp_backoff_base *. (2.0 ** float_of_int (!attempt - 1)))
    in
    if backoff > 0.0 then Unix.sleepf backoff;
    let idxs = List.sort compare !pending in
    pending := [];
    (* split by isolation need so in-process retries never share a
       Pool.map call with jobs whose last run killed a process *)
    let run_batch ~isolate batch =
      if batch <> [] then begin
        retried := !retried + List.length batch;
        let sub = List.map (fun i -> jobs_arr.(i)) batch in
        let sub_results, _ =
          Pool.map
            ~jobs:(min !workers (List.length batch))
            ?timeout ~attempt:!attempt
            ?mem_limit_mb:policy.sp_mem_limit_mb ~isolate sub
        in
        shrink_if_needed sub_results;
        List.iter2
          (fun i (r : 'r Pool.result) ->
            let r = { r with Pool.r_index = i } in
            match r.Pool.r_outcome with
            | Pool.Done _ ->
                incr recovered;
                final.(i) <- Some r;
                progress r
            | o ->
                let s = signature o in
                if s = sigs.(i) then begin
                  (* reproduced: a deterministic failure, not a flake *)
                  incr deterministic;
                  final.(i) <- Some r;
                  progress r
                end
                else begin
                  sigs.(i) <- s;
                  isolate_flags.(i) <- isolate_flags.(i) || needs_isolation o;
                  if !attempt >= policy.sp_retries then begin
                    incr gave_up;
                    final.(i) <- Some r;
                    progress r
                  end
                  else pending := i :: !pending
                end)
          batch sub_results
      end
    in
    run_batch ~isolate:true (List.filter (fun i -> isolate_flags.(i)) idxs);
    run_batch ~isolate:false
      (List.filter (fun i -> not isolate_flags.(i)) idxs);
    incr attempt
  done;
  let results =
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> assert false (* every index is finalized above *))
         final)
  in
  ( results,
    stats,
    {
      sup_rounds = !rounds;
      sup_retried = !retried;
      sup_recovered = !recovered;
      sup_deterministic = !deterministic;
      sup_gave_up = !gave_up;
      sup_shrinks = !shrinks;
      sup_final_workers = !workers;
    } )

(* ---- clean shutdown ---------------------------------------------- *)

let cleanups : (unit -> unit) list ref = ref []

let at_shutdown f = cleanups := f :: !cleanups

let shutdown ~code ~signal_name =
  (* forked children inherit the handler; only the original process
     should tear the world down (workers reset to Signal_default) *)
  Pool.kill_live_workers ();
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
