(** The server-resident warm state: assembled program images, live
    NEMU engines with their decoded superblock caches, and
    generated SimPoint checkpoint sets, keyed by the strings
    {!Proto.warm_key} derives from job specs.

    Entries never go stale by accident: programs and checkpoints are
    pure functions of their key, and a warm engine rolls its machine
    back to the reset point before every run (dropping decoded code
    whenever the previous run executed a flush event), so a warm
    result is architecturally identical to a cold one — the property
    every byte-identity test leans on.  Invalidation is therefore
    purely capacity-driven: past [capacity] entries the
    least-recently-used entry is evicted. *)

module Ewma : sig
  (** Exponentially-weighted moving averages of observed per-class job
      runtimes — the feedback that replaces {!Minjie.Pool}'s static
      expected durations once the service has seen a class before. *)

  type t

  val create : ?alpha:float -> unit -> t
  (** [alpha] (default 0.3) weights the newest observation. *)

  val observe : t -> string -> float -> unit

  val expect : t -> string -> default:float -> float
  (** The current average for a key, or [default] before any
      observation. *)

  val snapshot : t -> (string * float) list
  (** All (key, average) pairs, sorted by key. *)
end

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 64) bounds the entry count; LRU eviction. *)

val hits : t -> int
val misses : t -> int

val resolve_program : string -> Riscv.Asm.program
(** Resolve a workload name to an assembled image: a campaign
    catalogue name (built at its [small] scale), or
    ["testgen:SEED:BLOCKS:BLOCKLEN"] for a generated program.
    @raise Invalid_argument on an unknown name or malformed testgen
    spec. *)

val program : t -> string -> Riscv.Asm.program
(** Cached {!resolve_program}, keyed ["prog:" ^ workload]. *)

val engine : t -> string -> Nemu.Engine.warm
(** The resident warm engine for a workload, creating (and counting a
    miss) on first use; keyed ["engine:" ^ workload]. *)

val checkpoints :
  t ->
  workload:string ->
  interval:int ->
  max_k:int ->
  Checkpoint.Sampled.sampled_checkpoint list * Checkpoint.Sampled.generation_stats
(** Cached checkpoint generation for (workload, interval, max_k). *)

val config_of_name : string -> Xiangshan.Config.t
(** Resolve a {!Xiangshan.Config} preset by [cfg_name].
    @raise Invalid_argument on an unknown name. *)

val config_fingerprint : Xiangshan.Config.t -> string
(** A short stable digest of the full config record — warm keys and
    stats use it so two presets that happen to share a name can never
    alias. *)
