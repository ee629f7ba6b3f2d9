(* Client side of the `minjie serve` protocol. *)

type t = { fd : Unix.file_descr }

let connect path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let read_reply t =
  match Proto.read_frame t.fd with
  | Some payload -> Proto.reply_of_payload payload
  | None -> raise (Proto.Frame_error "server closed the connection")

let request t req =
  Proto.write_frame t.fd (Proto.request_to_bytes req);
  read_reply t

let retry_delay = 0.2

let rec submit ?(retries = 0) t spec =
  match request t (Submit spec) with
  | Proto.Busy _ as busy ->
      if retries <= 0 then busy
      else begin
        Unix.sleepf retry_delay;
        submit ~retries:(retries - 1) t spec
      end
  | reply -> reply

let submit_nowait t spec =
  Proto.write_frame t.fd (Proto.request_to_bytes (Proto.Submit spec))

let wait_ready ?(timeout = 10.0) path =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    let ok =
      match
        let c = connect path in
        Fun.protect ~finally:(fun () -> close c) (fun () -> request c Proto.Ping)
      with
      | Proto.Pong _ -> true
      | _ -> false
      | exception _ -> false
    in
    if ok then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf 0.05;
      poll ()
    end
  in
  poll ()

(* --- rendering -------------------------------------------------------- *)

let render_result (r : Proto.job_result) =
  let b = Buffer.create 256 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string b s) fmt in
  (match r with
  | Proto.R_run r ->
      (match r.rr_status with
      | Proto.Rs_finished c -> p "run: finished, exit code %d\n" c
      | Proto.Rs_failed f ->
          p "run: DIFFTEST FAILURE at cycle %d (rule %s): %s\n" f.rf_cycle
            f.rf_rule f.rf_msg
      | Proto.Rs_timeout -> p "run: cycle budget exhausted\n");
      p "cycles %d | instrs %d | commits checked %d\n" r.rr_cycles r.rr_instrs
        r.rr_commits;
      List.iter
        (fun (rule, n) -> if n > 0 then p "  rule %-24s fired %d\n" rule n)
        r.rr_rules
  | Proto.R_engine e ->
      let pc, regs, fregs = e.re_digest in
      let fold = Array.fold_left Int64.logxor 0L in
      p "engine: %d instructions retired, exit %s\n" e.re_insns
        (match e.re_exit with Some c -> string_of_int c | None -> "-");
      p "digest: pc=0x%Lx xregs=0x%Lx fregs=0x%Lx\n" pc (fold regs) (fold fregs)
  | Proto.R_checkpoint c ->
      p "checkpoint: %d interval(s), %d selected\n" c.rc_intervals c.rc_selected;
      List.iter
        (fun (s : Proto.sample) ->
          p "  sample %2d  weight %.4f  %7d instrs  %8d cycles  IPC %.4f\n"
            s.sa_index s.sa_weight s.sa_instructions s.sa_cycles
            (if s.sa_cycles = 0 then 0.0
             else float_of_int s.sa_instructions /. float_of_int s.sa_cycles))
        c.rc_samples;
      p "weighted IPC %.4f\n" c.rc_weighted_ipc
  | Proto.R_campaign c ->
      List.iter (fun line -> p "%s\n" line) c.rca_cells;
      p "campaign: %d cell(s), %d detected, %d escape(s)\n" c.rca_total
        c.rca_detected c.rca_escapes
  | Proto.R_fuzz f ->
      List.iter (fun line -> p "%s\n" line) f.rfz_round_lines;
      p
        "fuzz: %d round(s), %d exec(s), %d coverage point(s) over %d \
         cell(s), corpus %d, %d mismatch(es)\n"
        f.rfz_rounds f.rfz_execs f.rfz_points f.rfz_cells f.rfz_corpus
        f.rfz_mismatches
  | Proto.R_topdown t ->
      p "topdown: %d cycles, %d instrs\n" t.rt_cycles t.rt_instrs;
      List.iter (fun (n, v) -> p "  %-28s %12d\n" n v) t.rt_counters;
      (match Perf.Topdown.of_counters t.rt_counters with
      | Error msg -> p "top-down stack unavailable: %s\n" msg
      | Ok stack -> (
          match Perf.Topdown.check stack with
          | Error msg -> p "TOPDOWN INVARIANT VIOLATED: %s\n" msg
          | Ok () -> p "%s" (Perf.Topdown.render ~label:"topdown" stack)))
  | Proto.R_sleep s -> p "slept (%s)\n" s.rs_tag
  | Proto.R_error msg -> p "job error: %s\n" msg);
  Buffer.contents b
