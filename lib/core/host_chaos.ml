(* Seeded deterministic host-fault injection (see host_chaos.mli).

   The plan is one process-global record: the pool forks its workers
   after the driver arms the plan, so children inherit it copy-on-write
   and every process -- parent draining pipes, child writing its result
   -- consults the same deterministic schedule.  Selection hashes only
   stable identities (the armed seed, the job label, the attempt
   number), never wall-clock or pids, so the same seed always breaks
   the same cells in the same way. *)

type fault_class =
  | Worker_kill
  | Eintr_storm
  | Short_write
  | Slow_worker
  | Journal_enospc

let all_classes =
  [ Worker_kill; Eintr_storm; Short_write; Slow_worker; Journal_enospc ]

let class_name = function
  | Worker_kill -> "worker-kill"
  | Eintr_storm -> "eintr"
  | Short_write -> "short-write"
  | Slow_worker -> "slow-worker"
  | Journal_enospc -> "journal-enospc"

let classes_of_names names =
  List.concat_map
    (fun n ->
      if n = "all" then all_classes
      else
        match List.find_opt (fun c -> class_name c = n) all_classes with
        | Some c -> [ c ]
        | None ->
            invalid_arg
              (Printf.sprintf
                 "unknown chaos class %S (worker-kill | eintr | short-write \
                  | slow-worker | journal-enospc | all)"
                 n))
    names

type plan = {
  seed : int;
  classes : fault_class list;
  slow_delay : float;
  (* bounded parent/child-local budgets; a forked child starts from a
     copy-on-write snapshot of these, so every process's storm is
     finite on its own *)
  mutable eintr_budget : int;
  mutable short_budget : int;
  mutable enospc_fired : bool;
  fired : (string, int) Hashtbl.t;
}

let state : plan option ref = ref None

let arm ?(slow_delay = 4.0) ~seed classes =
  state :=
    Some
      {
        seed;
        classes;
        slow_delay;
        eintr_budget = 64;
        short_budget = 256;
        enospc_fired = false;
        fired = Hashtbl.create 8;
      }

let disarm () = state := None

let armed () = match !state with None -> [] | Some p -> p.classes

let env_plan () =
  match Sys.getenv_opt "MINJIE_CHAOS" with
  | None | Some "" -> None
  | Some s ->
      let seed =
        match Sys.getenv_opt "MINJIE_CHAOS_SEED" with
        | None -> 1
        | Some v -> (
            match int_of_string_opt (String.trim v) with
            | Some n -> n
            | None ->
                invalid_arg
                  (Printf.sprintf "MINJIE_CHAOS_SEED=%S (want an integer)" v))
      in
      let names =
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun c -> c <> "")
      in
      let classes =
        try classes_of_names names
        with Invalid_argument msg -> invalid_arg ("MINJIE_CHAOS: " ^ msg)
      in
      Some (seed, classes)

let has p c = List.mem c p.classes

let note p name =
  Hashtbl.replace p.fired name
    (1 + Option.value (Hashtbl.find_opt p.fired name) ~default:0)

(* FNV-1a over the label, folded with the seed: stable across
   processes and OCaml versions (unlike Hashtbl.hash, which is
   documented to vary). *)
let select ~seed ~label ~salt ~modulus =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0x3FFFFFFF)
    label;
  h := (!h + (seed * 0x9e3779b1) + (salt * 0x85ebca6b)) land 0x3FFFFFFF;
  !h mod modulus = 0

(* ---------------------------------------------------------------- *)
(* injection points                                                  *)
(* ---------------------------------------------------------------- *)

type worker_fate = Run | Kill_before_run | Die_mid_write | Stall of float

(* A third of the jobs die under Worker_kill, a quarter stall under
   Slow_worker -- dense enough that a smoke grid still gets hit,
   sparse enough that the retry budget is never the bottleneck.
   Attempt > 0 is always clean: a supervised re-run must converge. *)
let worker_fate ~label ~attempt =
  match !state with
  | None -> Run
  | Some _ when attempt > 0 -> Run
  | Some p ->
      if has p Worker_kill && select ~seed:p.seed ~label ~salt:1 ~modulus:3
      then
        if select ~seed:p.seed ~label ~salt:2 ~modulus:2 then Kill_before_run
        else Die_mid_write
      else if
        has p Slow_worker && select ~seed:p.seed ~label ~salt:3 ~modulus:4
      then Stall p.slow_delay
      else Run

let pipe_io_interrupt () =
  match !state with
  | Some p when has p Eintr_storm && p.eintr_budget > 0 ->
      p.eintr_budget <- p.eintr_budget - 1;
      note p (class_name Eintr_storm);
      raise (Unix.Unix_error (Unix.EINTR, "chaos", "synthetic EINTR"))
  | Some _ | None -> ()

let clamp_write len =
  match !state with
  | Some p when has p Short_write && p.short_budget > 0 && len > 3 ->
      p.short_budget <- p.short_budget - 1;
      note p (class_name Short_write);
      3
  | Some _ | None -> len

let journal_append_check ~index =
  match !state with
  | Some p when has p Journal_enospc && index >= 1 && not p.enospc_fired ->
      p.enospc_fired <- true;
      note p (class_name Journal_enospc);
      raise (Unix.Unix_error (Unix.ENOSPC, "chaos", "synthetic ENOSPC"))
  | Some _ | None -> ()

(* ---------------------------------------------------------------- *)
(* reporting                                                         *)
(* ---------------------------------------------------------------- *)

let planned ~labels =
  match !state with
  | None -> []
  | Some p ->
      List.filter_map
        (fun c ->
          let n =
            match c with
            | Worker_kill ->
                List.length
                  (List.filter
                     (fun l -> select ~seed:p.seed ~label:l ~salt:1 ~modulus:3)
                     labels)
            | Slow_worker ->
                List.length
                  (List.filter
                     (fun l ->
                       (not
                          (has p Worker_kill
                          && select ~seed:p.seed ~label:l ~salt:1 ~modulus:3))
                       && select ~seed:p.seed ~label:l ~salt:3 ~modulus:4)
                     labels)
            | Eintr_storm -> 64
            | Short_write -> 256
            | Journal_enospc -> 1
          in
          if has p c then Some (class_name c, n) else None)
        all_classes

let fired () =
  match !state with
  | None -> []
  | Some p ->
      List.filter_map
        (fun c ->
          match Hashtbl.find_opt p.fired (class_name c) with
          | Some n -> Some (class_name c, n)
          | None -> None)
        all_classes
