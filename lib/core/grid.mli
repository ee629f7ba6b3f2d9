(** One journaled, supervised runner for grids of independent jobs.

    The fault campaign, the fuzz rounds and the SimPoint sample sweep
    are all the same shape: a list of deterministic items, each run as
    one {!Pool} job under {!Supervisor} supervision, with results merged
    back in grid order.  A grid optionally carries a {!Journal}: only
    [Done] results are appended, and a resumed grid replays journaled
    items instead of re-running them, so a run that was killed and
    resumed returns exactly the list an uninterrupted run would.

    Failures are handled the same way at every width.  A job that
    raises, crashes or times out after its retry budget becomes the
    client's [of_failure] value, whether it ran in-process at
    [jobs = 1] or in a forked worker.  One journal may serve several
    batches ({!run} called once per fuzz round, for instance). *)

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
    order; the rest run through {!Supervisor.map} at [jobs] workers
    (default 1, in-process) with [retries] re-runs per failed job
    (default 0) and a per-job [timeout] in seconds.  Each fresh result
    reaches [progress] once, in completion order.  [label] and [cost]
    become the pool job's label and cost hint. *)

val map :
  ?jobs:int ->
  ?retries:int ->
  ?timeout:float ->
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
(** Supervised job re-runs so far. *)

val recovered : ('k, 'r) t -> int
(** Failed jobs that converged to a result under retry so far. *)
