(** Paged copy-on-write store.

    The one refcount/COW scheme behind simulated physical memory
    ({!Memory}) and the simulator's micro-architectural tables (cache
    metadata, predictor and TLB arrays).  It is the software analogue
    of a process address space under [fork]: a snapshot copies only
    the directory of owned pages and bumps their refcounts, and the
    first write to a shared page copies that page (a COW fault,
    counted in {!stats}).

    A page that was never written is the store's single shared
    initial page (zero bytes for memory; the table's initial value
    for a table), which is never mutated.  Creating a store therefore
    costs one page however large it is configured, and a snapshot
    costs O(owned pages), not O(configured size). *)

type t

type snapshot

val create : page_bits:int -> n_pages:int -> init:Bytes.t -> t
(** A store of [n_pages] pages of [2^page_bits] bytes, every one
    reading as [init] (which must be one page long and is never
    written) until it is first written. *)

val sized : bytes:int -> fill:(Bytes.t -> unit) -> t
(** A store of at least [bytes] bytes in 4 KiB pages (one smaller
    page if [bytes] is smaller), whose initial page is set up by
    [fill]. *)

val table : slots:int -> init:int -> t
(** A table of [slots] ints (8 bytes each, 512 to a page), every slot
    reading as [init] until written. *)

val page_bits : t -> int
(** log2 of the page size in bytes. *)

val n_pages : t -> int

(** {1 Pages} *)

val read_page : t -> int -> Bytes.t
(** Page [idx]'s bytes for reading (the initial page if unwritten). *)

val write_page : t -> int -> Bytes.t
(** Page [idx]'s bytes for writing: allocates on the first write and
    copies a shared page (a COW fault); otherwise no allocation. *)

(** {1 Int-slot tables}

    Slot [i] is the 8 bytes at byte offset [8 * i], read as an OCaml
    [int].  Neither accessor allocates except on a write fault. *)

val get : t -> int -> int

val set : t -> int -> int -> unit

val slots : t -> int
(** Slot capacity: at least the configured [slots], rounded up to
    whole pages. *)

val find : t -> from:int -> until:int -> int -> int
(** [find t ~from ~until v]: the first slot in [\[from, until)]
    holding [v], or -1.  Scans page by page without allocating. *)

val argmin : t -> until:int -> int
(** The first slot in [\[0, until)] holding the least value ([until]
    >= 1). *)

val clear : t -> unit
(** Back to the initial contents: drops every owned page. *)

(** {1 Snapshots} *)

val snapshot : t -> snapshot
(** O(owned pages): records the owned pages and bumps their
    refcounts, so the next write to each pays one COW fault. *)

val restore : t -> snapshot -> unit
(** Point [t] back at the snapshot's pages.  The snapshot remains
    valid and can be restored again, also into a detached store (the
    store's copy inside an unmarshalled LightSSS image). *)

val release : snapshot -> unit
(** Drop the snapshot's page references. *)

(** {1 Detaching} *)

type detached

val detach : t -> detached
(** Unhook the pages (directory, initial page, owned list), leaving
    an empty store that marshals to a few words.  Only {!reattach} or
    {!restore} make it usable again. *)

val reattach : t -> detached -> unit

(** {1 Whole store} *)

val deep_copy : t -> t
(** O(owned pages): private copies of every owned page (the SSS
    baseline); the initial page stays shared. *)

val iter_pages : t -> (int -> Bytes.t -> unit) -> unit
(** The owned pages in index order. *)

val allocated_pages : t -> int

val shared_pages : t -> int
(** Owned pages currently shared with a snapshot. *)

type stats = { cow_faults : int; pages_allocated : int; snapshots : int }

val stats : t -> stats

val reset_stats : t -> unit
