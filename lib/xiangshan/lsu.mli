(** Load/store unit: load queue, store queue, committed store buffer,
    store-to-load forwarding, and the LR/SC reservation.

    The store buffer is the paper's central source of memory
    non-determinism: stores retire into it at commit and only reach
    the cache hierarchy (hence other cores and the page-table walker)
    when drained -- the window behind the speculative page faults of
    Figure 3 and the multi-core divergences the Global-Memory rule
    reconciles. *)

type t = {
  cfg : Config.t;
  dcache : Softmem.Cache.t;
  uops : Uop.t;  (** the core's uop rows *)
  lq : int array;
      (** load queue: sequence numbers, [0, lq_n) in age order; free
          slots hold -1 *)
  sq : int array;
      (** store queue, likewise.  An entry whose row was reused names
          a retired store to MMIO: it counts as resolved and never
          forwards (see {!Uop.drop_squashed}). *)
  mutable lq_n : int;
  mutable sq_n : int;
  sb_paddr : Bytes.t;
  sb_size : int array;
  sb_data : Bytes.t;
      (** the store buffer: a ring of [store_buffer_size] slots, one
          committed store per slot across the three columns (8 bytes
          per slot in the unboxed 64-bit ones); freed slots hold 0 *)
  mutable sb_head : int;  (** slot of the oldest entry *)
  mutable sb_n : int;  (** entries, oldest first from [sb_head] *)
  mutable sb_next_drain : int;
  mutable reservation : (int64 * int) option;
  mutable forwards : int;
  mutable blocked_loads : int;
  mutable forward_misses : int;
  mutable drains : int;
  mutable bug_drop_drains : int;
      (** fault: discard the next N drained entries (they leave the
          buffer but never reach memory) *)
  mutable bug_reorder_drains : int;
      (** fault: the next N drain pairs reach memory youngest-first *)
  mutable bug_silent_drains : int;
      (** fault: the next N drains skip the [on_drain] announcement *)
  mutable bug_stall_drain : bool;
      (** fault: the store buffer never drains (wedges commit) *)
  mutable bug_no_forward : bool;
      (** fault: loads ignore pending older stores *)
  mutable bug_forward_mask : int64;
      (** fault: store-to-load forwarded data is XORed with this mask
          (wrong-lane mux); [0L] disables *)
}

val create : Config.t -> dcache:Softmem.Cache.t -> uops:Uop.t -> t

val lq_occupancy : t -> int
val sq_occupancy : t -> int
val sb_occupancy : t -> int
(** O(1) occupancies; dispatch admission and [Core.stall_site] read
    these, so the two can never disagree. *)

val sb_full : t -> bool

val insert_load : t -> int -> unit
val insert_store : t -> int -> unit
(** Append a sequence number as the youngest entry; O(1).  Dispatch
    admission keeps the
    queues within [lq_size]/[sq_size]. *)

val drop_squashed : t -> unit
(** Compact out squashed uops in place, keeping age order. *)

val older_stores_known : t -> seq:int -> bool
(** Conservative load scheduling: a load may only issue once every
    older store address is resolved (no memory-dependence
    speculation, hence no ordering-violation replays). *)

type forward_result = Forward of int64 | Blocked | No_match

val forward : t -> seq:int -> paddr:int64 -> size:int -> forward_result
(** The youngest older store touching the load's bytes decides,
    scanning the store buffer then the SQ, oldest to youngest:
    [Forward] when it covers them, [Blocked] on a partial overlap.
    Allocates only a forwarded result. *)

val commit_store : t -> int -> unit
(** [commit_store t seq]: move a retiring store from the SQ into the
    store buffer (the caller checks [sb_full]). *)

val remove_load : t -> int -> unit

val drain_ready : t -> now:int -> bool
(** Pure: would [drain] dequeue an entry at [now]?  Snapshotted by
    phase 1 of the two-phase cycle. *)

val drain : t -> now:int -> on_drain:(int64 -> int -> unit) -> unit
(** Drain at most one store-buffer entry into the cache hierarchy,
    respecting the configured drain interval. *)

val drain_all : t -> now:int -> on_drain:(int64 -> int -> unit) -> int
(** Force-drain (fences, atomics, sfence.vma); returns cycles. *)

val set_reservation : t -> paddr:int64 -> now:int -> unit
val clear_reservation : t -> unit

val reservation_valid : t -> paddr:int64 -> now:int -> bool
(** Same line and not past the configured timeout (the SC-failure
    non-determinism source). *)

val snoop_invalidate : t -> paddr:int64 -> unit
(** Another agent stored to this line: kill a covering reservation. *)
