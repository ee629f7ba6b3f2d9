(** Fork-based parallel simulation pool.

    The paper's checkpoint flow exists to replace a >150-hour FPGA run
    with "hours of parallel RTL simulation" (§III-D3), and the
    fault-injection campaign's claims rest on many independent
    (fault x seed) cells; both fan-outs are embarrassingly parallel.
    This pool runs such job lists across [jobs] worker processes using
    [Unix.fork] + pipes + [Marshal] -- the LightSSS philosophy: a fork
    child shares every loaded program, decoded superblock and COW page
    with the parent for free, where OCaml 5 domains would race on the
    simulator's mutable global state.

    Semantics, by construction:

    - {b deterministic merging}: results come back in submission
      order, whatever order the workers finish in;
    - {b longest-expected-first scheduling}: jobs are dispatched in
      decreasing [j_cost] order so a long tail job cannot strand the
      pool at the end of the run;
    - {b crash isolation}: a worker that exits non-zero, dies on a
      signal, or writes a truncated result surfaces as that one job's
      {!Crashed} outcome -- the pool never aborts;
    - {b per-job timeout}: a job past its deadline gets SIGTERM, then
      SIGKILL after a grace period, and reports {!Timed_out};
    - EINTR-safe [waitpid]/[select] throughout; every child is reaped.

    [jobs = 1] (the default) runs every job in-process, in submission
    order, with no fork -- byte-identical to the pre-pool sequential
    code path (timeouts are not enforced in-process).

    The library, the front ends and the bench harness reach the pool
    only through {!Grid}, which adds retries, journaling and the
    mapping of failures to the caller's values.  The pool also owns
    the signal-driven shutdown path (see below). *)

type 'r job = {
  j_label : string;  (** for progress lines and failure messages *)
  j_cost : float;
      (** expected relative cost; only the ordering matters
          (longest-expected-first dispatch) *)
  j_run : unit -> 'r;
      (** runs in the forked worker; the result must be marshallable
          plain data (no closures, no custom blocks) *)
}

type 'r outcome =
  | Done of 'r
  | Job_error of string  (** [j_run] raised; carries the exception *)
  | Crashed of string
      (** the worker process died (non-zero exit, signal, or
          truncated/undecodable result pipe) *)
  | Timed_out of float  (** seconds the job had run when killed *)

type 'r result = {
  r_index : int;  (** submission index *)
  r_label : string;
  r_outcome : 'r outcome;
  r_seconds : float;  (** wall-clock seconds, spawn to completion *)
  r_slot : int;  (** worker slot that ran the job *)
}

type slot_stats = {
  s_jobs : int;  (** jobs this worker slot ran *)
  s_seconds : float;  (** wall-clock seconds the slot was busy *)
}

type stats = {
  p_workers : int;  (** worker slots the pool ran with *)
  p_seconds : float;  (** wall-clock seconds for the whole pool run *)
  p_slots : slot_stats array;  (** length [p_workers] *)
  p_crashed : int;
  p_timed_out : int;
}

val host_cores : unit -> int
(** Online CPUs on this host (from /proc/cpuinfo; 1 if unreadable).
    Scaling beyond this is bookkeeping, not speedup. *)

val live_worker_pids : unit -> int list
(** Pids of worker processes currently forked by this process's pools.
    Empty outside {!map}; used by shutdown handlers. *)

val kill_live_workers : unit -> unit
(** SIGTERM, then SIGKILL and reap, every live worker.  Safe to call
    from a signal handler path; idempotent. *)

val map :
  ?jobs:int ->
  ?timeout:float ->
  ?kill_grace:float ->
  ?attempt:int ->
  ?isolate:bool ->
  ?progress:('r result -> unit) ->
  'r job list ->
  'r result list * stats
(** Run every job; return results in submission order plus pool
    stats.  [timeout] (seconds, default none) applies per job;
    [kill_grace] (default 2s) is the SIGTERM-to-SIGKILL escalation
    delay.  Jobs are dispatched longest-expected-first by [j_cost],
    which minimises makespan when costs are roughly right.  [progress]
    is called in the parent as each result completes -- completion
    order, not submission order.

    [attempt] (default 0) is forwarded to {!Host_chaos.worker_fate} so
    chaos schedules can spare retries.  [isolate] forces the forked
    code path even at one worker -- a retry of a job that crashed the
    last process must not run in the parent. *)

(** {1 Clean shutdown}

    SIGINT/SIGTERM must not strand forked workers or tear half-written
    output.  {!install_signal_handlers} arms handlers that kill and
    reap every live worker, run the registered cleanups (journal
    close, socket removal), flush stdio, and [_exit] with the
    conventional status -- 130 for SIGINT, 143 for SIGTERM. *)

val at_shutdown : (unit -> unit) -> unit
(** Register a cleanup to run on signal-driven shutdown (LIFO;
    exceptions in one cleanup do not stop the others).  Cleanups run
    only on the signal path, not on normal exit. *)

val install_signal_handlers : unit -> unit
(** Arm the SIGINT/SIGTERM handlers described above.  Idempotent. *)
