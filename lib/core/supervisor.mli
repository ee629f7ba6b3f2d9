(** Worker supervision: retry/backoff and graceful degradation on top
    of {!Pool}.

    A multi-hour unattended campaign meets host faults the pool alone
    cannot absorb: a worker OOM-killed mid-cell, a transient stall, an
    EINTR storm that tears a result pipe.  The supervisor re-runs
    failed jobs with capped exponential backoff and {e classifies}
    each failure by re-running it once and comparing: a deterministic
    failure (a bug in the job, a job that always exhausts memory)
    reproduces with the same signature and is reported as-is after one
    confirmation -- it must never be retried away -- while a transient
    host fault does not reproduce and converges to a clean result.

    Crucially, a {e fault-detection verdict} from the campaign is a
    successful [Done] result carrying a mismatch -- the supervisor
    never sees it as a failure, so injected microarchitectural faults
    cannot be "retried away"; only harness-level failures (crash,
    timeout, exception) enter the retry path.

    Degradation ladder: a round with enough worker crashes halves the
    worker count for subsequent rounds, bottoming out at one worker --
    where crash/timeout retries still run fork-isolated
    ({!Pool.map}[ ~isolate:true]) so a deterministically-crashing job
    cannot take the harness down with it. *)

type policy = {
  sp_retries : int;  (** max re-runs per failed job (0 disables) *)
  sp_backoff_base : float;  (** seconds before the first retry round *)
  sp_backoff_cap : float;  (** backoff ceiling, seconds *)
  sp_mem_limit_mb : int option;
      (** cooperative per-worker memory ceiling (see
          {!Pool.mem_ceiling_exit_code}) *)
  sp_shrink_after : int;
      (** worker crashes in one round that trigger a pool halving *)
}

val default_policy : policy
(** 1 retry, 50ms base backoff capped at 2s, no memory ceiling,
    shrink after 3 crashes in a round. *)

type report = {
  sup_rounds : int;  (** retry rounds actually executed *)
  sup_retried : int;  (** job re-runs across all rounds *)
  sup_recovered : int;  (** failed jobs that converged to [Done] *)
  sup_deterministic : int;
      (** failures that reproduced with the same signature and were
          finalized without spending the rest of the budget *)
  sup_gave_up : int;  (** failures still changing when budget ran out *)
  sup_shrinks : int;  (** pool halvings applied *)
  sup_final_workers : int;  (** worker count after degradation *)
}

val map :
  ?jobs:int ->
  ?timeout:float ->
  ?policy:policy ->
  ?progress:('r Pool.result -> unit) ->
  'r Pool.job list ->
  'r Pool.result list * Pool.stats * report
(** {!Pool.map} under supervision, at [jobs] workers (default 1).
    Results come back in submission order; each job's result is its
    {e final} outcome after retries.  [progress] fires exactly once
    per job, when its outcome is final.  [stats] are from the first
    (full-width) round. *)

(** {1 Clean shutdown}

    SIGINT/SIGTERM must not strand forked workers or tear half-written
    output.  {!install_signal_handlers} arms handlers that kill and
    reap every live pool worker, run the registered cleanups (journal
    sync/close, progress-line teardown), flush stdio, and [_exit] with
    the conventional status -- 130 for SIGINT, 143 for SIGTERM. *)

val at_shutdown : (unit -> unit) -> unit
(** Register a cleanup to run on signal-driven shutdown (LIFO;
    exceptions in one cleanup do not stop the others).  Cleanups run
    only on the signal path, not on normal exit. *)

val install_signal_handlers : unit -> unit
(** Arm the SIGINT/SIGTERM handlers described above.  Idempotent. *)
