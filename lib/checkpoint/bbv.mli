(** Basic-block-vector collection inside NEMU (paper §III-D3).

    Under profiling the fast engine folds no jumps, so each superblock
    ends in at most one control-flow edge and the pc of its terminator
    identifies the basic block that just ended.  Each terminator pc
    owns one counter cell, resolved when the engine compiles the
    block and shared by every entry ending there; an executed edge
    bumps it and tests the interval boundary, with no hashing.  At each
    boundary of a fixed-size instruction interval the cells hit in it
    are harvested, in first-touch order, into a sparse, normalised
    block-frequency vector for SimPoint clustering. *)

type vector = (int64 * float) list
(** Sparse (block id, frequency) pairs; frequencies sum to 1 within an
    interval. *)

type t

val create : interval:int -> t

val attach : t -> Nemu.Fast.t -> unit
(** Enable profiling on the engine, install this profiler's counter
    sites and flush the engine so every block is recompiled with
    them; interval boundaries follow the engine's [instret]. *)

val finish : t -> unit
(** Flush the partial last interval. *)

val vectors : t -> vector array
(** Vectors in execution order. *)
