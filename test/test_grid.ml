(* Grid: the one runner behind the campaign, fuzz and sampled grids.
   A failing job must come back as the same of_failure value at every
   width, and a resumed journal must merge back in grid order. *)

let items = List.init 6 Fun.id

let run ?journal ?resume ?(batches = [ items ]) ~jobs f =
  let g = Minjie.Grid.create ?journal ?resume ~key:"test-grid" fst in
  let seen = ref [] in
  let results =
    List.concat_map
      (Minjie.Grid.run g ~jobs
         ~progress:(fun r -> seen := r :: !seen)
         ~key:Fun.id ~label:(Printf.sprintf "item%d")
         ~cost:(fun _ -> 1.0)
         ~of_failure:(fun i msg -> (i, "FAILED: " ^ msg))
         f)
      batches
  in
  Minjie.Grid.close g;
  (results, Minjie.Grid.resumed g, List.rev !seen)

let square i = (i, string_of_int (i * i))

let results_t = Alcotest.(list (pair int string))

let test_raising_job_same_at_every_width () =
  let f i = if i = 3 then failwith "boom" else square i in
  let seq, _, seq_seen = run ~jobs:1 f in
  let par, _, par_seen = run ~jobs:2 f in
  Alcotest.(check results_t) "jobs=1 == jobs=2, failure item included" seq par;
  Alcotest.(check (pair int string))
    "the raising job became its of_failure value"
    (3, "FAILED: Failure(\"boom\")")
    (List.nth seq 3);
  Alcotest.(check int) "progress once per item at jobs=1" 6
    (List.length seq_seen);
  Alcotest.(check int) "progress once per item at jobs=2" 6
    (List.length par_seen)

let test_resume_merges_in_grid_order () =
  let path = Filename.temp_file "minjie-grid" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* failed jobs are never journaled: the journal keeps the evens *)
      let _ =
        run ~journal:path ~jobs:1 (fun i ->
            if i mod 2 = 1 then failwith "interrupted" else square i)
      in
      let resumed, n, seen =
        run ~journal:path ~resume:true ~jobs:2
          ~batches:[ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]
          square
      in
      Alcotest.(check results_t) "full list in grid order"
        (List.map square items) resumed;
      Alcotest.(check int) "resumed count" 3 n;
      Alcotest.(check results_t) "replayed items report first in each batch"
        [ square 0; square 2 ]
        (List.filteri (fun k _ -> k < 2) seen);
      (* without resume the journal is discarded and everything reruns *)
      let _, fresh, _ = run ~journal:path ~jobs:1 square in
      Alcotest.(check int) "no resume, nothing replayed" 0 fresh)

let test_isolated_crash_at_one_worker () =
  (* serve's contract: with [isolate] a job runs in a forked worker even
     at jobs=1, so a job that kills its own process becomes its
     of_failure value and this process lives on *)
  let results =
    Minjie.Grid.map ~jobs:1 ~isolate:true ~label:(Printf.sprintf "item%d")
      ~cost:(fun _ -> 1.0)
      ~of_failure:(fun i msg -> (i, "FAILED: " ^ msg))
      (fun i ->
        if i = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        square i)
      [ 0; 1; 2 ]
  in
  Alcotest.(check results_t) "the self-killing job became its of_failure value"
    [
      square 0;
      (1, Printf.sprintf "FAILED: worker for %S killed by signal %d" "item1"
            Sys.sigkill);
      square 2;
    ]
    results

let tests =
  [
    Alcotest.test_case "raising job: same result list at jobs=1 and 2" `Quick
      test_raising_job_same_at_every_width;
    Alcotest.test_case "resume merges a journal subset in grid order" `Quick
      test_resume_merges_in_grid_order;
    Alcotest.test_case "isolate: a self-killing job at jobs=1 fails alone"
      `Quick test_isolated_crash_at_one_worker;
  ]
