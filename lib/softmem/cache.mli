(** Coherent cache hierarchy, transaction-level.

    Abstraction (see DESIGN.md "model fidelity"): line data is
    write-through to the single backing physical memory, while each
    level runs a real coherence *metadata* state machine -- tags,
    permissions, an inclusive sharers directory, Acquire / Grant /
    Probe / Probe_ack / Release events, MSHR in-flight windows -- and
    computes latencies.  This preserves everything the experiments
    observe: hit/miss/capacity behaviour, probe traffic for the
    permission scoreboard, and the Acquire/Probe race window used by
    the §IV-C fault injection (which captures the pre-write line image
    and serves it on later grants: "L2 grants the wrong data upward to
    L1").

    Concurrency across misses is modelled by the LSU keeping several
    transactions in flight with independent completion times. *)

type parent = Dram of Dram.t | Cache of t

and t = {
  name : string;
  sets : int;
  ways : int;
  line_shift : int;
  hit_latency : int;
  tags : Riscv.Cow.t;
      (** line metadata, copy-on-write tables with one slot per
          [sets * ways] line, row-major by set: the line index
          ([addr lsr line_shift]), -1 if invalid *)
  perms : Riscv.Cow.t;  (** {!Perm.rank} *)
  sharers : Riscv.Cow.t;  (** bitmask of children holding >= Branch *)
  owners : Riscv.Cow.t;  (** child holding Trunk, -1 if none *)
  last_use : Riscv.Cow.t;
  inflight_until : Riscv.Cow.t;  (** fill outstanding until this cycle *)
  mutable parent : parent;
  mutable children : t array;
  mutable child_id : int;
  backing : Riscv.Memory.t;
  mutable sink : Event.sink;
  mutable now : int;
  mutable bug_probe_race : bool;
      (** §IV-C injection: a Probe overlapping an in-flight Acquire
          captures the stale line image *)
  mutable bug_skip_probe : bool;
      (** scoreboard injection: grant Trunk without probing sharers *)
  poisoned : (int, Bytes.t) Hashtbl.t;  (** by line index *)
  mutable s_accesses : int;
  mutable s_misses : int;
  mutable s_refills : int;
      (** misses that installed a line (permission upgrades excluded) *)
  mutable s_probes : int;
  mutable s_evictions : int;
  mutable mshr_cap : int;
  mutable fill_win_until : int;
  mutable fill_win_count : int;
  mutable s_mshr_sat : int;
}

val create :
  name:string ->
  size_bytes:int ->
  ways:int ->
  line_shift:int ->
  hit_latency:int ->
  backing:Riscv.Memory.t ->
  unit ->
  t

val set_parent : t -> t -> unit
(** Make the second argument the parent of the first (registers the
    child in the parent's directory). *)

val set_dram : t -> Dram.t -> unit

val iter_tree : t -> (t -> unit) -> unit

val tables : t -> Riscv.Cow.t list
(** Every metadata table of the subtree, node by node in
    {!iter_tree} order (LightSSS snapshots these). *)

(** {1 Core-facing interface (called on an L1 node)} *)

val read : t -> addr:int64 -> size:int -> int64 * int
(** (value, latency); acquires Branch permission, probing a sibling
    Trunk holder if necessary. *)

val write : t -> addr:int64 -> size:int -> int64 -> int
(** Latency; acquires Trunk (invalidating sibling copies) and writes
    through to the backing memory. *)

val fetch : t -> addr:int64 -> int
(** Instruction-fetch latency (Branch permission, no data returned
    here; the IFU reads bytes from the backing memory). *)

val invalidate_all : t -> unit

val corrupt_lines : t -> max:int -> int
(** Fault injection: poison the data image of up to [max] valid lines
    (bit-flipped payload, as if a Grant went bad).  Reads consult the
    poison; a write to the line heals it.  Returns the count. *)

val set_now : t -> int -> unit
(** Advance the node's clock (the owner SoC sets it every cycle). *)

type stats = {
  accesses : int;
  misses : int;
  refills : int;  (** line installs; a permission-upgrade miss is not a refill *)
  probes : int;
  evictions : int;
  mshr_saturated : int;
      (** misses that began while [mshr] fills were already outstanding
          (see {!set_mshrs}); 0 when untracked *)
}

val stats : t -> stats

val set_mshrs : t -> int -> unit
(** Enable the MSHR-saturation probe with the given number of miss
    slots (0 disables it, the default).  Purely observational: hit
    and miss latencies are unchanged; a miss that begins while the
    slots are exhausted increments [mshr_saturated]. *)
