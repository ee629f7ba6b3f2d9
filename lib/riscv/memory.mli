(** Paged physical memory with copy-on-write snapshots.

    The pages live in a {!Cow} store, the copy-on-write scheme shared
    with the simulator's micro-architectural tables.  It is the
    software analogue of a Linux process address space: a snapshot
    copies only the directory of written pages (like [fork] copying
    page tables) and marks them shared; the first write to a shared
    page performs a lazy copy (a COW fault, counted in {!stats}).
    LightSSS builds its fork-style snapshots on this module; the SSS
    baseline deliberately deep-copies instead.

    Pages are allocated lazily: memory that has never been written
    reads as zero and costs nothing to snapshot.

    Common-width accesses resolve to a single
    [Bytes.get/set_int64_le]-family primitive on the page's backing
    store, with a one-entry last-page cache (separate read/write) that
    skips page-table indexing on sequential access.

    The representation is exposed so interpreter fast paths can probe
    the last-page caches inline; treat the fields as read-only
    elsewhere. *)

type t = {
  base : int64;
  page_bits : int;
  store : Cow.t;
  mutable cache_r_idx : int;
  mutable cache_r_data : Bytes.t;
  mutable cache_w_idx : int;
  mutable cache_w_data : Bytes.t;
}

type snapshot = Cow.snapshot

val create : ?page_bits:int -> base:int64 -> size:int -> unit -> t
(** [page_bits] defaults to 12 (4 KiB pages). *)

val size : t -> int

val base : t -> int64

val in_range : t -> int64 -> bool

val page_size : t -> int

val store : t -> Cow.t

val invalidate_caches : t -> unit
(** Drop the last-page caches.  Required before the store is detached
    or restored behind this module's back (LightSSS). *)

(** {1 Access}

    Multi-byte accessors are little-endian and may straddle page
    boundaries.  All raise [Invalid_argument] out of range. *)

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit
val read_u16 : t -> int64 -> int
val write_u16 : t -> int64 -> int -> unit
val read_u32 : t -> int64 -> int
val write_u32 : t -> int64 -> int -> unit
val read_u64 : t -> int64 -> int64
val write_u64 : t -> int64 -> int64 -> unit

val read_page : t -> int -> Bytes.t
(** [read_page t idx] is page [idx]'s backing store for reading (the
    store's shared zero page if unwritten), refreshing the read cache.
    Exported so interpreter fast paths can probe
    [cache_r_idx]/[cache_r_data] inline and only call out on a miss. *)

val write_page : t -> int -> Bytes.t
(** [write_page t idx] is page [idx]'s backing store for writing,
    allocating / COW-resolving on demand and refreshing the write
    cache. *)

val read_bytes_le : t -> int64 -> int -> int64
(** [read_bytes_le t addr n] reads [n] (<= 8) bytes. *)

val write_bytes_le : t -> int64 -> int -> int64 -> unit

val load_program : t -> addr:int64 -> int32 array -> unit

(** {1 Snapshots} *)

val snapshot : t -> snapshot
(** O(written pages): records them and bumps their refcounts. *)

val restore : t -> snapshot -> unit
(** Point [t] back at the snapshot's pages.  The snapshot remains
    valid and can be restored again. *)

val release_snapshot : snapshot -> unit
(** Drop the snapshot's page references. *)

val deep_copy : t -> t
(** O(memory): the SSS baseline. *)

val iter_pages : t -> (int -> Bytes.t -> unit) -> unit
(** The written pages in index order. *)

(** {1 Statistics} *)

val allocated_pages : t -> int

type stats = Cow.stats = {
  cow_faults : int;
  pages_allocated : int;
  snapshots : int;
}

val stats : t -> stats

val reset_stats : t -> unit
