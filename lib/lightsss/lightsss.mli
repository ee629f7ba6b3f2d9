(** LightSSS: lightweight simulation snapshots (paper §III-C).

    The paper forks the RTL-simulation process and lets the kernel's
    copy-on-write provide an in-memory, incremental, circuit-agnostic
    snapshot.  The OCaml analogue: every simulated physical memory
    and every micro-architectural table (cache metadata, predictors,
    TLBs) lives in a {!Riscv.Cow} paged COW store, whose snapshot
    copies only the directory of written pages (like [fork] copying
    page tables); the rest of the simulator graph is captured with
    [Marshal] (closures included) after detaching the stores' pages
    and any shared or derived state, so the image stays O(small
    metadata).

    The manager keeps the most recent two snapshots (§III-C3): on an
    error, the older one is restored and at most two intervals are
    replayed in debug mode. *)

type snapshot = {
  snap_cycle : int;
  store_snaps : Riscv.Cow.snapshot list;
      (** the subject's memories' stores, then its tables *)
  image : bytes;
  image_bytes : int;
}

(** What to snapshot: the COW stores (memories and tables) plus the
    root of the object graph.  [detach_heavy]/[reattach_heavy]
    bracket the marshalling step for state shared with the replay
    rather than copied (the fork-shared-pages analogue) or derived
    and rebuilt lazily after a restore (see
    {!Minjie.Workflow.subject_of}). *)
type 'a subject = {
  memories : Riscv.Memory.t list;
  tables : Riscv.Cow.t list;
  roots : 'a;
  detach_heavy : unit -> unit;
  reattach_heavy : unit -> unit;
}

val plain_subject :
  memories:Riscv.Memory.t list ->
  ?tables:Riscv.Cow.t list ->
  roots:'a ->
  unit ->
  'a subject

val snapshot : 'a subject -> cycle:int -> snapshot
(** O(written pages + metadata).  If marshalling the roots raises,
    the exception propagates and no page of any store is left
    shared. *)

val image_objects : snapshot -> int
(** Heap blocks in the marshalled image, read from its header (small
    and big formats).  Marshal's cost is per block, so this is the
    deterministic proxy for snapshot time. *)

val restore_with :
  snapshot ->
  memories_of:('a -> Riscv.Memory.t list) ->
  tables_of:('a -> Riscv.Cow.t list) ->
  'a
(** Unmarshal a fresh copy of the roots and re-link its stores, by
    position, to the snapshot's pages.  [memories_of]/[tables_of]
    must enumerate the fresh graph's stores in the order the subject
    listed them.  The caller re-installs whatever sinks it wants on
    the replayed instance (that is where debug mode gets switched
    on). *)

val release : snapshot -> unit

(** {1 The two-slot manager} *)

type 'a manager = {
  subject : 'a subject;
  interval : int;
  mutable slots : snapshot list; (** at most two, newest first *)
  mutable last_snap_cycle : int;
  mutable snapshots_taken : int;
  mutable total_snapshot_seconds : float;
}

val manager : interval:int -> 'a subject -> 'a manager

val tick : 'a manager -> cycle:int -> unit
(** Call every cycle; snapshots when the interval elapses and retires
    the third-oldest snapshot. *)

val replay_point : 'a manager -> snapshot option
(** The older retained snapshot: replaying from it covers at most two
    intervals before the error. *)

(** {1 Baselines (Table I)} *)

val full_image_snapshot : ?to_file:bool -> 'a subject -> int
(** O(memory) full image (the LiveSim-like baseline); [to_file]
    additionally round-trips through the filesystem (the Verilator
    save/restore SSS flow).  Returns the image size in bytes. *)

type scheme = {
  scheme_name : string;
  in_memory : bool;
  incremental : bool;
  circuit_agnostic : bool;
}

val schemes : scheme list
(** The comparison rows of Table I. *)
