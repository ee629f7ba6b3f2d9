(** Functional execution of non-memory uops at issue time.

    Results use the same shared semantics ([Iss.Alu] / [Iss.Fpu]) as
    the reference model, so a DiffTest value mismatch always localises
    a pipeline bug rather than an arithmetic divergence. *)

val execute : Uop.t -> Rename.t -> unit
(** [execute u rn] computes [u]'s result / actual next pc /
    misprediction flag from its renamed sources' values in [rn].
    Memory and system uops never take this path. *)
