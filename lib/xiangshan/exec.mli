(** Functional execution of non-memory uops at issue time.

    Results use the same shared semantics ([Iss.Alu] / [Iss.Fpu]) as
    the reference model, so a DiffTest value mismatch always localises
    a pipeline bug rather than an arithmetic divergence. *)

val execute : Uop.t -> int -> Rename.t -> unit
(** [execute uops r rn] computes the result / actual next pc /
    misprediction flag of the uop in row [r] from its renamed sources'
    values in [rn].  Memory and system uops never take this path. *)

val agen : Uop.t -> int -> Rename.t -> int64
(** [agen uops r rn]: address generation for the load or store in row
    [r].  Writes its [vaddr] and [msize] (and a store's [sdata], masked
    to the access size) and returns the vaddr. *)
