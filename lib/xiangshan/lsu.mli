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
  lq : Uop.t array;
      (** load queue: [0, lq_n) in age order; free slots hold
          [Uop.sentinel] *)
  sq : Uop.t array;  (** store queue, likewise *)
  mutable lq_n : int;
  mutable sq_n : int;
  sb_paddr : int64 array;
  sb_size : int array;
  sb_data : int64 array;
      (** the store buffer: a ring of [store_buffer_size] slots, one
          committed store per slot across the three arrays; freed
          slots hold 0 *)
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

val create : Config.t -> dcache:Softmem.Cache.t -> t

val lq_occupancy : t -> int
val sq_occupancy : t -> int
val sb_occupancy : t -> int
(** O(1) occupancies; dispatch admission and [Core.stall_site] read
    these, so the two can never disagree. *)

val sb_full : t -> bool

val insert_load : t -> Uop.t -> unit
val insert_store : t -> Uop.t -> unit
(** Append as the youngest entry; O(1).  Dispatch admission keeps the
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

val commit_store : t -> Uop.t -> unit
(** Move a retiring store from the SQ into the store buffer (the
    caller checks [sb_full]). *)

val remove_load : t -> Uop.t -> unit

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
