(** ArchDB (paper §III-B3): a typed in-memory event database fed by
    the information probes.

    The paper's ArchDB is SQLite-backed with tables auto-generated
    from probe definitions; here each probe type has a typed, bounded
    table plus the queries the §IV-C debugging session needs. *)

type commit_row = Xiangshan.Probe.commit

type drain_row = Xiangshan.Probe.store_drain

type cache_row = Softmem.Event.t

type 'a table = { t_name : string; rows : 'a Queue.t; mutable capacity : int }

val make_table : string -> ?capacity:int -> unit -> 'a table

val insert : 'a table -> 'a -> unit
(** Bounded: the oldest row is dropped beyond [capacity]. *)

val to_list : 'a table -> 'a list

val filter : 'a table -> ('a -> bool) -> 'a list

val count : 'a table -> int

(** One persisted performance-counter value. *)
type counter_row = { cn_hartid : int; cn_name : string; cn_value : int }

type t = {
  commits : commit_row table;
  drains : drain_row table;
  cache_events : cache_row table;
  counters : counter_row table;
}

val create : ?capacity:int -> unit -> t

val attach : t -> Xiangshan.Soc.t -> unit
(** Tee every probe stream of the SoC into the database, preserving
    previously installed sinks.  Commit rows are {!Xiangshan.Probe.copy}s:
    a commit slot is refilled on the next cycle. *)

val record_counters : t -> Xiangshan.Soc.t -> unit
(** Persist [Core.counter_snapshot] of every hart into the [counters]
    table (called at the end of a run or debug replay). *)

(** {1 Queries} *)

val transactions_for_line : t -> addr:int64 -> cache_row list
(** All coherence transactions touching the 64-byte line of [addr]. *)

type overlap = {
  ov_addr : int64;
  ov_node : string;
  ov_acquire_cycle : int;
  ov_probe_cycle : int;
}

val acquire_probe_overlaps : t -> window:int -> overlap list
(** Blocks where a Probe reached a node within [window] cycles of an
    Acquire on the same block -- the §IV-C race signature. *)

val commits_between : t -> from_cycle:int -> to_cycle:int -> commit_row list

val drains_for_line : t -> addr:int64 -> drain_row list

val final_counters : t -> hartid:int -> (string * int) list
(** Latest recorded value of every counter of one hart. *)

(** {1 Persistence} *)

val save : t -> path:string -> unit
(** Dump the database (atomically: temp file + fsync + rename) so a
    campaign or debug session's evidence survives the process.  A
    crash mid-save leaves the previous dump or none, never a torn
    file. *)

val load : path:string -> t
(** Load a {!save}d database. *)

val pp_summary : Format.formatter -> t -> unit
