(* Supervision in Grid: transient flakes converge under retry, while
   deterministic failures reproduce and are never retried away; SIGINT
   shutdown leaves no orphan workers behind. *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let tmpmarker () = Filename.temp_file "minjie-test-sup" ".marker"

(* Run [jobs] (label, body) pairs on a fresh grid: each body's value
   comes back as [Ok v], a failure as [Error msg]. *)
let supervised ?(jobs = 2) ?timeout ?progress ~retries items =
  let g = Minjie.Grid.create ~key:"" ignore in
  let results =
    Minjie.Grid.run g ~jobs ~retries ?timeout ?progress ~key:ignore ~label:fst
      ~cost:(fun _ -> 1.0)
      ~of_failure:(fun _ msg -> Error msg)
      (fun (_, body) -> Ok (body ()))
      items
  in
  (results, g)

(* the classic transient fault: the first attempt dies the way an
   OOM-killed worker does, the re-run returns [v].  Cross-process state
   lives in a marker file because the first attempt runs in a forked
   worker. *)
let with_flaky v f =
  let marker = tmpmarker () in
  Sys.remove marker;
  Fun.protect
    ~finally:(fun () -> try Sys.remove marker with Sys_error _ -> ())
    (fun () ->
      f (fun () ->
          if Sys.file_exists marker then v
          else begin
            close_out (open_out marker);
            Unix.kill (Unix.getpid ()) Sys.sigkill;
            0
          end))

let test_flake_converges () =
  with_flaky 42 (fun flaky ->
      let results, g =
        supervised ~retries:2 [ ("steady", fun () -> 7); ("flaky", flaky) ]
      in
      Alcotest.(check bool) "steady done, flake recovered to Done" true
        (results = [ Ok 7; Ok 42 ]);
      Alcotest.(check int) "one retry" 1 (Minjie.Grid.retried g);
      Alcotest.(check int) "one recovery" 1 (Minjie.Grid.recovered g))

let test_deterministic_error_not_retried_away () =
  (* a failure that reproduces with the same signature is final after
     ONE confirming re-run, even with budget left -- a real bug must
     never be retried into silence *)
  let results, g =
    supervised ~retries:5
      [ ("buggy", fun () : int -> failwith "the same bug every time") ]
  in
  (match results with
  | [ Error msg ] ->
      Alcotest.(check bool) "carries the error" true
        (contains ~sub:"the same bug every time" msg)
  | _ -> Alcotest.fail "expected one failure");
  Alcotest.(check int) "confirmed after one re-run: one retry of the five" 1
    (Minjie.Grid.retried g);
  Alcotest.(check int) "nothing recovered" 0 (Minjie.Grid.recovered g)

let test_deterministic_crash_isolated_retry () =
  (* a deterministically-crashing job's retry runs at a width of one,
     where it must stay fork-isolated: the grid survives to report it
     as a crash instead of dying with its job *)
  let results, g =
    supervised ~retries:3
      [
        ( "always-dies",
          fun () ->
            Unix.kill (Unix.getpid ()) Sys.sigkill;
            0 );
        ("fine", fun () -> 5);
      ]
  in
  (match results with
  | [ Error msg; other ] ->
      Alcotest.(check bool) "reported as a crash" true
        (contains ~sub:"killed by signal" msg);
      Alcotest.(check bool) "other job unharmed" true (other = Ok 5)
  | _ -> Alcotest.fail "expected a crash, then a result");
  Alcotest.(check int) "confirmed deterministic after one re-run" 1
    (Minjie.Grid.retried g)

let test_backoff_applied () =
  (* the retry round waits at least the base backoff (50 ms) *)
  with_flaky 1 (fun flaky ->
      let t0 = Unix.gettimeofday () in
      let _, g = supervised ~retries:1 [ ("flaky", flaky) ] in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check int) "recovered" 1 (Minjie.Grid.recovered g);
      Alcotest.(check bool)
        (Printf.sprintf "waited the backoff (%.3fs)" elapsed)
        true (elapsed >= 0.05))

let test_progress_fires_once_per_job () =
  with_flaky 9 (fun flaky ->
      let seen = Hashtbl.create 8 in
      let _ =
        supervised ~retries:2
          ~progress:(fun r ->
            Hashtbl.replace seen r
              (1 + Option.value (Hashtbl.find_opt seen r) ~default:0))
          [ ("a", fun () -> 1); ("flaky", flaky); ("b", fun () -> 2) ]
      in
      Alcotest.(check int) "three progress events" 3 (Hashtbl.length seen);
      Hashtbl.iter
        (fun r n ->
          if n <> 1 then
            Alcotest.failf "result %s saw %d progress events"
              (match r with Ok v -> string_of_int v | Error e -> e)
              n)
        seen)

(* ---- clean shutdown: no orphan workers --------------------------- *)

let test_sigint_leaves_no_orphans () =
  (* a driver process (own session) runs a pool of long sleepers and
     gets SIGINT: it must exit 130 and leave NOTHING alive in its
     process group -- the workers are SIGTERM/SIGKILLed and reaped *)
  flush stdout;
  flush stderr;
  let driver = Unix.fork () in
  if driver = 0 then begin
    ignore (Unix.setsid ());
    Minjie.Pool.install_signal_handlers ();
    let _ =
      supervised ~jobs:3 ~retries:0
        (List.init 3 (fun i ->
             ( Printf.sprintf "sleeper%d" i,
               fun () ->
                 Unix.sleepf 30.0;
                 i )))
    in
    (* unreachable if the signal arrived *)
    Unix._exit 99
  end
  else begin
    (* give the driver time to fork its workers *)
    Unix.sleepf 0.6;
    Unix.kill driver Sys.sigint;
    let _, status = Unix.waitpid [] driver in
    (match status with
    | Unix.WEXITED 130 -> ()
    | Unix.WEXITED c -> Alcotest.failf "driver exited %d, wanted 130" c
    | Unix.WSIGNALED s -> Alcotest.failf "driver died on signal %d" s
    | Unix.WSTOPPED _ -> Alcotest.fail "driver stopped");
    (* the driver was its own process group (setsid): once every
       worker is gone, signalling the group raises ESRCH *)
    let deadline = Unix.gettimeofday () +. 3.0 in
    let rec wait_empty () =
      match Unix.kill (-driver) 0 with
      | () ->
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "orphan workers survived SIGINT"
          else begin
            Unix.sleepf 0.05;
            wait_empty ()
          end
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ()
    in
    wait_empty ()
  end

let tests =
  [
    Alcotest.test_case "transient flake converges" `Quick test_flake_converges;
    Alcotest.test_case "deterministic error not retried away" `Quick
      test_deterministic_error_not_retried_away;
    Alcotest.test_case "deterministic crash retried in isolation" `Quick
      test_deterministic_crash_isolated_retry;
    Alcotest.test_case "retry backoff applied" `Quick test_backoff_applied;
    Alcotest.test_case "progress fires once per job" `Quick
      test_progress_fires_once_per_job;
    Alcotest.test_case "SIGINT leaves no orphans" `Quick
      test_sigint_leaves_no_orphans;
  ]
