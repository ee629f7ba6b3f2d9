(** Microarchitectural coverage map.

    A cell names an event class the fuzzer wants to reach -- a counter
    from {!Xiangshan.Core.counter_snapshot} (IQ-full and SB-full
    dispatch stalls, RAS overflow/underflow, mispredict classes,
    LR/SC success/failure, D$ MSHR saturation, ROB walk-depth buckets,
    TLB-walk-during-flush, ...) prefixed with the config axis it was
    observed on.  The cell's value is the deepest log2 magnitude
    bucket ever observed ([1] = fired once, up to {!max_bucket} for
    >= 128 events), so "more of the same event" keeps counting as new
    coverage a few times, then saturates.

    Maps form a lattice under pointwise bucket max: {!merge_into} is
    commutative, associative and idempotent, which is what lets pool
    workers' maps merge in any order and a journal resume replay into
    the identical map.  The per-event hot path is a plain
    counter field bumped in place; this map folds one final snapshot
    per run. *)

type t

val max_bucket : int
(** 8: buckets are 1, 2-3, 4-7, ..., >= 128. *)

val bucket : int -> int
(** [floor(log2 v) + 1] capped at {!max_bucket}; 0 for [v <= 0]. *)

val create : unit -> t

val note : t -> string -> int -> unit
(** [note t cell v] raises [cell] to at least [bucket v]. *)

val add_counters : t -> axis:string -> (string * int) list -> unit
(** Fold one run's counter snapshot; every cell is prefixed
    ["axis/"] so runs on different configs cover distinct cells. *)

val cells : t -> int
(** Distinct covered cells (hit at least once). *)

val points : t -> int
(** Total coverage points: the sum of bucket levels over all cells.
    Monotone under both {!note} and {!merge_into}. *)

val merge_into : into:t -> t -> unit

val to_alist : t -> (string * int) list
(** Sorted by cell name. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Stable text form ([MJCOV1] header + sorted [cell level] lines):
    byte-identical for equal maps, so merged campaign state can be
    diffed and persisted. *)

val of_string : string -> t option
(** Inverse of {!to_string}; [None] on a malformed document. *)
