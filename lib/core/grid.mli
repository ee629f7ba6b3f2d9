(** The one supervised runner for every fan-out of independent jobs.

    The fault campaign, the fuzz rounds, the SimPoint sample sweep,
    serve's isolation batches and the bench harness's repetitions and
    top-down runs are all the same shape: a list of items, each run as
    one {!Pool} job, with results merged back in item order.  A grid
    optionally carries a {!Journal}: only [Done] results are appended,
    and a resumed grid replays journaled items instead of re-running
    them, so a run that was killed and resumed returns exactly the list
    an uninterrupted run would.

    Failures are handled the same way at every width.  A job that
    raises, crashes or times out after its retry budget becomes the
    client's [of_failure] value, whether it ran in-process at
    [jobs = 1] or in a forked worker.  One journal may serve several
    batches ({!run} called once per fuzz round, for instance).

    {b Supervision.}  Failed jobs are re-run, up to [retries] times,
    after a capped exponential backoff (50 ms, doubling, at most 2 s).
    Each failure is classified by re-running it: a failure that one
    re-run reproduces with the same signature is deterministic (a bug
    in the job) and is final, so it is never retried away, while a
    transient host fault converges to a result.  A campaign's
    fault-detection verdict is a successful result carrying a mismatch,
    so an injected fault never enters the retry path.  Crash and
    timeout retries always run fork-isolated, even at one worker, and
    a round in which three or more workers crash halves the worker
    count for the rounds after it. *)

type ('k, 'r) t
(** An open grid: results keyed by ['k], replayed from its journal. *)

val create :
  ?journal:string -> ?resume:bool -> key:string -> ('r -> 'k) -> ('k, 'r) t
(** [create ?journal ?resume ~key result_key] opens the grid.  With a
    [journal] path, results already journaled under the same [key] are
    replayed when [resume] is true (default false); without [resume] an
    existing journal at that path is discarded.  [result_key] maps a
    replayed result to the key of the item that produced it. *)

val run :
  ('k, 'r) t ->
  ?jobs:int ->
  ?retries:int ->
  ?timeout:float ->
  ?isolate:bool ->
  ?progress:('r -> unit) ->
  key:('item -> 'k) ->
  label:('item -> string) ->
  cost:('item -> float) ->
  of_failure:('item -> string -> 'r) ->
  ('item -> 'r) ->
  'item list ->
  'r list
(** Run one batch of items and return one result per item, in item
    order.  Replayed items report through [progress] first, in item
    order; the rest run at [jobs] workers (default 1, in-process) with
    [retries] re-runs per failed job (default 0) and a per-job
    [timeout] in seconds.  [isolate] (default false) forks every job
    even at one worker, for jobs that must not run in the caller's
    process.  Each fresh result reaches [progress] once, on its final
    outcome, in completion order.  [label] and [cost] become the pool
    job's label and cost hint. *)

val map :
  ?jobs:int ->
  ?retries:int ->
  ?timeout:float ->
  ?isolate:bool ->
  label:('item -> string) ->
  cost:('item -> float) ->
  of_failure:('item -> string -> 'r) ->
  ('item -> 'r) ->
  'item list ->
  'r list
(** {!run} on an unjournaled grid. *)

val close : ('k, 'r) t -> unit
(** Close the journal, if any. *)

val resumed : ('k, 'r) t -> int
(** Items served from the journal so far. *)

val retried : ('k, 'r) t -> int
(** Job re-runs so far. *)

val recovered : ('k, 'r) t -> int
(** Failed jobs that converged to a result under retry so far. *)
