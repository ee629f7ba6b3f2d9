(* ArchDB (§III-B3): a typed in-memory event database fed by the
   information probes.

   The paper's version is SQLite-backed with tables auto-generated
   from probe definitions; here each probe type gets a typed table
   with filtering and query helpers, and the analyses the §IV-C
   debugging session needs -- transaction histories per cache block,
   overlapping Acquire/Probe windows -- are provided as queries. *)

type commit_row = Xiangshan.Probe.commit

type drain_row = Xiangshan.Probe.store_drain

type cache_row = Softmem.Event.t

type 'a table = { t_name : string; rows : 'a Queue.t; mutable capacity : int }

let make_table name ?(capacity = 1_000_000) () =
  { t_name = name; rows = Queue.create (); capacity }

let insert tbl row =
  Queue.add row tbl.rows;
  if Queue.length tbl.rows > tbl.capacity then ignore (Queue.pop tbl.rows)

let to_list tbl = List.of_seq (Queue.to_seq tbl.rows)

let filter tbl p = List.filter p (to_list tbl)

let count tbl = Queue.length tbl.rows

(* Final performance-counter values, persisted per hart so campaign
   and debug sessions can query them after the run. *)
type counter_row = { cn_hartid : int; cn_name : string; cn_value : int }

type t = {
  commits : commit_row table;
  drains : drain_row table;
  cache_events : cache_row table;
  counters : counter_row table;
}

let create ?(capacity = 1_000_000) () =
  {
    commits = make_table "commits" ~capacity ();
    drains = make_table "store_drains" ~capacity ();
    cache_events = make_table "cache_transactions" ~capacity ();
    counters = make_table "perf_counters" ~capacity ();
  }

(* Attach to a SoC: tees every probe stream into the database while
   preserving previously installed sinks.  A commit probe is a slot the
   core refills next cycle, so the table keeps a copy. *)
let attach (db : t) (soc : Xiangshan.Soc.t) =
  Array.iter
    (fun (core : Xiangshan.Core.t) ->
      let p = core.Xiangshan.Core.probes in
      let old_commit = p.Xiangshan.Probe.on_commit in
      p.Xiangshan.Probe.on_commit <-
        (fun c ->
          insert db.commits (Xiangshan.Probe.copy c);
          old_commit c);
      let old_drain = p.Xiangshan.Probe.on_drain in
      p.Xiangshan.Probe.on_drain <-
        (fun d ->
          insert db.drains d;
          old_drain d))
    soc.Xiangshan.Soc.cores;
  let old_sink = soc.Xiangshan.Soc.event_sink in
  Xiangshan.Soc.set_event_sink soc (fun ev ->
      insert db.cache_events ev;
      old_sink ev)

(* Persist the current counter snapshot of every hart.  Called at the
   end of a run (or of a debug replay); the newest record for a name
   wins in [final_counters]. *)
let record_counters (db : t) (soc : Xiangshan.Soc.t) =
  Array.iteri
    (fun hartid (core : Xiangshan.Core.t) ->
      List.iter
        (fun (name, v) ->
          insert db.counters { cn_hartid = hartid; cn_name = name; cn_value = v })
        (Xiangshan.Core.counter_snapshot core))
    soc.Xiangshan.Soc.cores

(* ---- queries ---------------------------------------------------------- *)

(* The latest recorded value of every counter of one hart, in
   first-recorded order. *)
let final_counters (db : t) ~hartid : (string * int) list =
  let order = ref [] in
  let values = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if r.cn_hartid = hartid then begin
        if not (Hashtbl.mem values r.cn_name) then order := r.cn_name :: !order;
        Hashtbl.replace values r.cn_name r.cn_value
      end)
    (to_list db.counters);
  List.rev_map (fun name -> (name, Hashtbl.find values name)) !order

(* All coherence transactions touching the line of [addr], in time
   order. *)
let transactions_for_line (db : t) ~(addr : int64) : cache_row list =
  let line = Int64.shift_right_logical addr 6 in
  filter db.cache_events (fun (e : cache_row) ->
      Int64.shift_right_logical e.Softmem.Event.addr 6 = line)

(* Find blocks where a Probe arrived at a node within [window] cycles
   after an Acquire on the same block -- the §IV-C race signature. *)
type overlap = {
  ov_addr : int64;
  ov_node : string;
  ov_acquire_cycle : int;
  ov_probe_cycle : int;
}

let acquire_probe_overlaps (db : t) ~(window : int) : overlap list =
  let acquires = Hashtbl.create 64 in
  let result = ref [] in
  List.iter
    (fun (e : cache_row) ->
      match e.Softmem.Event.xact with
      | Softmem.Perm.Acquire _ ->
          Hashtbl.replace acquires
            (e.Softmem.Event.node, e.Softmem.Event.addr)
            e.Softmem.Event.cycle
      | Softmem.Perm.Probe _ -> (
          match
            Hashtbl.find_opt acquires (e.Softmem.Event.node, e.Softmem.Event.addr)
          with
          | Some acq when e.Softmem.Event.cycle - acq <= window ->
              result :=
                {
                  ov_addr = e.Softmem.Event.addr;
                  ov_node = e.Softmem.Event.node;
                  ov_acquire_cycle = acq;
                  ov_probe_cycle = e.Softmem.Event.cycle;
                }
                :: !result
          | Some _ | None -> ())
      | Softmem.Perm.Grant _ | Softmem.Perm.Probe_ack _ | Softmem.Perm.Release
        ->
          ())
    (to_list db.cache_events);
  List.rev !result

(* Commits in a cycle range (the LightSSS region of interest). *)
let commits_between (db : t) ~from_cycle ~to_cycle : commit_row list =
  filter db.commits (fun (c : commit_row) ->
      c.Xiangshan.Probe.p_cycle >= from_cycle
      && c.Xiangshan.Probe.p_cycle <= to_cycle)

(* The last stores that drained to the line of [addr]. *)
let drains_for_line (db : t) ~(addr : int64) : drain_row list =
  let line = Int64.shift_right_logical addr 6 in
  filter db.drains (fun (d : drain_row) ->
      Int64.shift_right_logical d.Xiangshan.Probe.d_paddr 6 = line)

(* ---- persistence ------------------------------------------------------ *)

(* On-disk shape: plain lists, so the file does not depend on Queue's
   internal representation. *)
type disk = {
  dk_capacity : int;
  dk_commits : commit_row list;
  dk_drains : drain_row list;
  dk_cache : cache_row list;
  dk_counters : counter_row list;
}

let save (db : t) ~path =
  let d =
    {
      dk_capacity = db.commits.capacity;
      dk_commits = to_list db.commits;
      dk_drains = to_list db.drains;
      dk_cache = to_list db.cache_events;
      dk_counters = to_list db.counters;
    }
  in
  Journal.atomic_write_file ~path (Marshal.to_string d [])

let load ~path : t =
  let ic = open_in_bin path in
  let d : disk =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        Marshal.from_channel ic)
  in
  let db = create ~capacity:d.dk_capacity () in
  List.iter (insert db.commits) d.dk_commits;
  List.iter (insert db.drains) d.dk_drains;
  List.iter (insert db.cache_events) d.dk_cache;
  List.iter (insert db.counters) d.dk_counters;
  db

let pp_summary fmt (db : t) =
  Format.fprintf fmt
    "ArchDB: %d commits, %d store drains, %d cache transactions, %d counters"
    (count db.commits) (count db.drains) (count db.cache_events)
    (count db.counters)
