(** The Global Memory of the multi-core diff-rule (paper §III-B2b).

    Records every store that enters the cache hierarchy of the DUT
    (store-buffer drains, SC and AMO writes, from all harts), with
    drain cycles as the "additional historical information".  When a
    single-core REF's load disagrees with the DUT, DiffTest asks
    whether the DUT value was legally produced by some hart:
    byte-by-byte, the value must match either the currently drained
    value or one overwritten within the load's read window.  A value
    overwritten long before the load read memory is reported as a
    data mismatch -- which is how the §IV-C stale-grant bug surfaces.

    {!Difftest} records nothing on a SoC with one hart, so there the
    history stays empty.  That loses nothing: with a single REF the
    ["global-memory-load"] rule fails every load mismatch before it
    would consult the history, since no other hart can have stored
    the value.

    Each record costs amortised O(1).  An entry is dropped once every
    byte it wrote has been overwritten for longer than {!retention}
    cycles; entries the drop applies to but not yet swept away are
    invisible to {!compatible} and {!lookup}, so every answer equals
    that of pruning on every record, also when a debug replay records
    from an earlier cycle again. *)

type t

val slack : int
(** Same-tick drain/check ordering tolerance, in cycles. *)

val retention : int
(** How long superseded values stay checkable, bounding history size. *)

val create : unit -> t

val record : t -> cycle:int -> paddr:int64 -> size:int -> value:int64 -> unit
(** Called from the store-drain probe of every hart.  Allocates only
    when a word is first stored or its history outgrows its arrays. *)

val compatible : t -> at:int -> paddr:int64 -> size:int -> value:int64 -> bool
(** Is [value], read from memory at cycle [at], justifiable?  Bytes
    never stored are unconstrained (initial image). *)

val lookup : t -> paddr:int64 -> size:int -> int64 option
(** The currently drained value, if every byte has been stored. *)

val history_length : t -> paddr:int64 -> int
(** Entries held for the aligned word containing [paddr], including
    ones pruned logically but not yet swept: what the history costs
    in memory. *)

val detach : t -> unit -> unit
(** Empty [t] (a LightSSS snapshot leaves the history out of its
    image); the returned function puts the history back. *)

val share : t -> from:t -> unit
(** Make [t] read and record into [from]'s history (a replayed
    instance shares the live one's). *)
