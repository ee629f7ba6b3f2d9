(* One journaled, supervised runner for job grids (see grid.mli). *)

type ('k, 'r) t = {
  journal : Journal.t option;
  replayed : ('k, 'r) Hashtbl.t;
  mutable resumed : int;
  mutable retried : int;
  mutable recovered : int;
}

let create ?journal ?(resume = false) ~key result_key =
  let replayed = Hashtbl.create 64 in
  let journal =
    Option.map
      (fun path ->
        if not resume then (try Sys.remove path with Sys_error _ -> ());
        let j, records = Journal.open_ ~path ~key in
        List.iter (fun r -> Hashtbl.replace replayed (result_key r) r) records;
        Pool.at_shutdown (fun () -> Journal.close j);
        j)
      journal
  in
  { journal; replayed; resumed = 0; retried = 0; recovered = 0 }

(* Supervision: seconds before the first retry round, doubling per
   round up to the cap, and the worker crashes in one round that halve
   the pool. *)
let backoff_base = 0.05
let backoff_cap = 2.0
let shrink_after = 3

(* A failure's identity for reproduce-and-compare classification.
   Timed_out drops the elapsed seconds: two timeouts of the same job
   are the same failure even if the clock differs. *)
let signature (o : 'r Pool.outcome) =
  match o with
  | Pool.Done _ -> "done"
  | Pool.Job_error msg -> "error:" ^ msg
  | Pool.Crashed msg -> "crash:" ^ msg
  | Pool.Timed_out _ -> "timeout"

(* Crashes and timeouts took a whole process down (or needed a kill);
   their retries stay fork-isolated even at one worker.  A plain job
   exception is safe to re-run in-process. *)
let needs_isolation (o : 'r Pool.outcome) =
  match o with
  | Pool.Crashed _ | Pool.Timed_out _ -> true
  | Pool.Done _ | Pool.Job_error _ -> false

(* Run every job and call [finish i outcome] exactly once per job, on
   its final outcome.  Round zero runs the whole batch at full width,
   and its results finish as they land.  Failed jobs are then retried
   after a capped exponential backoff; a failure that one re-run
   reproduces with the same signature is final (a real bug is never
   retried away), and a round with [shrink_after] worker crashes
   halves the width for the rounds after it. *)
let supervise g ~jobs ~retries ?timeout ~isolate ~finish
    (pool_jobs : 'r Pool.job array) =
  let n = Array.length pool_jobs in
  let workers = ref (max 1 jobs) in
  let sigs = Array.make n "" and isolated = Array.make n isolate in
  let pool_map ~attempt ~isolate ?progress ~width idxs =
    let results, _ =
      Pool.map ~jobs:width ?timeout ~attempt ~isolate ?progress
        (List.map (fun i -> pool_jobs.(i)) idxs)
    in
    let crashes =
      List.length
        (List.filter
           (fun r ->
             match r.Pool.r_outcome with Pool.Crashed _ -> true | _ -> false)
           results)
    in
    if crashes >= shrink_after && !workers > 1 then begin
      workers := !workers / 2;
      Printf.eprintf
        "grid: repeated worker deaths; shrinking pool to %d worker%s\n%!"
        !workers
        (if !workers = 1 then "" else "s")
    end;
    List.map2 (fun i (r : 'r Pool.result) -> (i, r.Pool.r_outcome)) idxs results
  in
  let pending = ref [] in
  let retry_later i o =
    sigs.(i) <- signature o;
    isolated.(i) <- isolated.(i) || needs_isolation o;
    pending := i :: !pending
  in
  List.iter
    (fun (i, o) ->
      match o with
      | Pool.Done _ -> ()
      | o -> if retries = 0 then finish i o else retry_later i o)
    (pool_map ~attempt:0 ~isolate ~width:!workers
       ~progress:(fun r ->
         match r.Pool.r_outcome with
         | Pool.Done _ -> finish r.Pool.r_index r.Pool.r_outcome
         | _ -> ())
       (List.init n Fun.id));
  let attempt = ref 1 in
  while !pending <> [] && !attempt <= retries do
    Unix.sleepf
      (Float.min backoff_cap
         (backoff_base *. (2.0 ** float_of_int (!attempt - 1))));
    let idxs = List.sort compare !pending in
    pending := [];
    (* in-process retries never share a Pool.map call with jobs whose
       last run killed a process *)
    let retry ~isolate batch =
      if batch <> [] then begin
        g.retried <- g.retried + List.length batch;
        List.iter
          (fun (i, o) ->
            match o with
            | Pool.Done _ ->
                g.recovered <- g.recovered + 1;
                finish i o
            | o ->
                if signature o = sigs.(i) || !attempt >= retries then
                  finish i o
                else retry_later i o)
          (pool_map ~attempt:!attempt ~isolate
             ~width:(min !workers (List.length batch))
             batch)
      end
    in
    let iso, plain = List.partition (fun i -> isolated.(i)) idxs in
    retry ~isolate:true iso;
    retry ~isolate:false plain;
    incr attempt
  done

let run g ?(jobs = 1) ?(retries = 0) ?timeout ?(isolate = false)
    ?(progress = ignore) ~key ~label ~cost ~of_failure f items =
  let slots =
    List.map
      (fun item ->
        match Hashtbl.find_opt g.replayed (key item) with
        | Some r ->
            g.resumed <- g.resumed + 1;
            progress r;
            `Replayed r
        | None -> `Todo item)
      items
  in
  let todo =
    Array.of_list
      (List.filter_map
         (function `Todo item -> Some item | `Replayed _ -> None)
         slots)
  in
  let fresh = Array.make (Array.length todo) None in
  (* only real results reach the journal *)
  let finish i (outcome : _ Pool.outcome) =
    let v =
      match outcome with
      | Pool.Done v ->
          Option.iter (fun j -> Journal.append j v) g.journal;
          v
      | Pool.Job_error msg | Pool.Crashed msg -> of_failure todo.(i) msg
      | Pool.Timed_out secs ->
          of_failure todo.(i) (Printf.sprintf "timed out after %.1fs" secs)
    in
    fresh.(i) <- Some v;
    progress v
  in
  if todo <> [||] then
    supervise g ~jobs ~retries:(max 0 retries) ?timeout ~isolate ~finish
      (Array.map
         (fun item ->
           {
             Pool.j_label = label item;
             j_cost = cost item;
             j_run = (fun () -> f item);
           })
         todo);
  (* merge in grid order, wherever each result came from *)
  let next = ref (-1) in
  List.map
    (function
      | `Replayed r -> r
      | `Todo _ ->
          incr next;
          Option.get fresh.(!next))
    slots

let map ?jobs ?retries ?timeout ?isolate ~label ~cost ~of_failure f items =
  run
    (create ~key:"" (fun _ -> ()))
    ?jobs ?retries ?timeout ?isolate ~key:ignore ~label ~cost ~of_failure f
    items

let close g = Option.iter Journal.close g.journal
let resumed g = g.resumed
let retried g = g.retried
let recovered g = g.recovered
