(** The `minjie serve` daemon: a Unix-domain-socket job server that
    keeps warm simulation state resident across jobs.

    Execution model: a batched event loop.  Each round drains every
    readable client connection (accepting jobs into per-client FIFO
    queues, bounded by [queue_depth] across all clients — excess
    submits get an immediate {!Proto.Busy} reply), then builds a batch
    by taking jobs round-robin across clients (fairness: a flooding
    client contributes at most its share per round) and sorts the
    batch by warm key so jobs sharing warm state run back-to-back.
    Warm-stateful classes (engine, checkpoint generation) execute in
    the server process, where the decoded superblock caches and
    generated checkpoints accumulate; isolation classes (run,
    campaign, fuzz, topdown, sleep) go through {!Minjie.Grid} with
    [~isolate:true], so each forks even at one worker and a job that
    kills its worker becomes an [Proto.R_error] reply.  Their expected
    costs come from the {!Warm_cache.Ewma} of the runtimes each job
    measures inside its worker, and the assembled program images they
    need are prefetched into the warm cache in the parent first, so
    forked workers inherit them copy-on-write.

    Crash safety: with a journal, every accepted job is appended
    before it runs and every result when it lands; a killed server
    restarted with [resume] re-executes accepted-but-unfinished jobs
    (as orphans — their clients are gone) before accepting new ones.
    SIGTERM/SIGINT go through {!Minjie.Pool}'s handlers: live
    pool workers are killed and reaped, the socket is unlinked, the
    journal is closed, and the process exits 143/130. *)

type config = {
  socket_path : string;
  jobs : int;  (** pool worker count for isolation-class batches *)
  queue_depth : int;  (** max queued jobs across all clients *)
  batch_max : int;  (** max jobs dispatched per loop round *)
  journal_path : string option;
  resume : bool;
  quiet : bool;  (** suppress per-job stderr log lines *)
}

val default_config : socket_path:string -> config
(** jobs 1, queue_depth 64, batch_max [2 * jobs], no journal. *)

type jrec = J_acc of int * Proto.job_spec | J_done of int * Proto.job_result
(** Journal records: a job is appended as [J_acc] when accepted (before
    it runs) and as [J_done] when its result lands, so the journal is a
    write-ahead account of the queue. *)

val journal_key : string
(** The {!Minjie.Journal} key serve journals are written under. *)

val pending_of_records : jrec list -> (int * Proto.job_spec) list
(** The accepted-but-unfinished jobs in a journal replay, in
    acceptance order — exactly what a restarted server re-runs. *)

val exec_cold : ?jobs:int -> Proto.job_spec -> Proto.job_result
(** Execute a job spec against a fresh, throwaway warm cache — the
    cold-start reference path.  Every served result must be
    [Marshal]-byte-identical to this function's output for the same
    spec ([jobs] only changes how checkpoint samples / campaign cells
    fan out, never the result). *)

val exec :
  Warm_cache.t -> jobs:int -> Proto.job_spec -> Proto.job_result
(** Execute against a resident warm cache (exposed for tests and the
    bench harness; the server calls this internally).  Exceptions
    become {!Proto.R_error}. *)

val serve : config -> int
(** Run the server until a [Shutdown] request; returns the process
    exit code (0).  Binds [socket_path] (unlinking a stale socket,
    refusing a live one), then loops as described above. *)
