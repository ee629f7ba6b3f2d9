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
        Supervisor.at_shutdown (fun () -> Journal.close j);
        j)
      journal
  in
  { journal; replayed; resumed = 0; retried = 0; recovered = 0 }

let run g ?(jobs = 1) ?(retries = 0) ?timeout ?(progress = ignore) ~key ~label
    ~cost ~of_failure f items =
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
  if todo <> [||] then begin
    let pool_jobs =
      Array.to_list
        (Array.map
           (fun item ->
             {
               Pool.j_label = label item;
               j_cost = cost item;
               j_run = (fun () -> f item);
             })
           todo)
    in
    (* fires once per job, on its final outcome; only real results
       reach the journal *)
    let finish (r : _ Pool.result) =
      let item = todo.(r.Pool.r_index) in
      let v =
        match r.Pool.r_outcome with
        | Pool.Done v ->
            Option.iter (fun j -> Journal.append j v) g.journal;
            v
        | Pool.Job_error msg | Pool.Crashed msg -> of_failure item msg
        | Pool.Timed_out secs ->
            of_failure item (Printf.sprintf "timed out after %.1fs" secs)
      in
      fresh.(r.Pool.r_index) <- Some v;
      progress v
    in
    let _, _, rep =
      Supervisor.map ~jobs ?timeout
        ~policy:{ Supervisor.default_policy with sp_retries = max 0 retries }
        ~progress:finish pool_jobs
    in
    g.retried <- g.retried + rep.Supervisor.sup_retried;
    g.recovered <- g.recovered + rep.Supervisor.sup_recovered
  end;
  (* merge in grid order, wherever each result came from *)
  let next = ref (-1) in
  List.map
    (function
      | `Replayed r -> r
      | `Todo _ ->
          incr next;
          Option.get fresh.(!next))
    slots

let map ?jobs ?retries ?timeout ~label ~cost ~of_failure f items =
  run
    (create ~key:"" (fun _ -> ()))
    ?jobs ?retries ?timeout ~key:ignore ~label ~cost ~of_failure f items

let close g = Option.iter Journal.close g.journal
let resumed g = g.resumed
let retried g = g.retried
let recovered g = g.recovered
