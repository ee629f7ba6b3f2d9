(** Sv39 page-table entries and the one Sv39 walk, shared by the
    reference models, the DUT's hardware walker, and the micro-kernel
    workloads that build page tables.  The walk, the access type, its
    page-fault cause and the leaf permission check are defined here
    once for every executor. *)

(** Permission/status bit positions within a PTE. *)

val v : int
val r : int
val w : int
val x : int
val u : int
val g : int
val a : int
val d : int

val pa_of_ppn : int64 -> int64

val make : pa:int64 -> int list -> int64
(** [make ~pa flags] builds a PTE pointing at [pa] with the given flag
    bit positions set. *)

(** {1 Access rules} *)

type access = Fetch | Load | Store

val page_fault : access -> Trap.exc
(** The page-fault cause of a failed translation for [access]. *)

val leaf_permits : Csr.t -> flags:int -> access -> bool
(** Whether a leaf PTE with these flag bits (its low eight) permits
    [access] at the CSR file's privilege, honouring mstatus.SUM and
    mstatus.MXR. *)

(** {1 The Sv39 walk} *)

val translation_active : Csr.t -> bool
(** Paging applies outside M-mode when satp selects Sv39. *)

val walk :
  ('src -> int64 -> int64) -> 'src -> Memory.t -> satp:int64 -> int64 -> int
(** [walk read src mem ~satp va] walks [va]'s page table from satp's
    root, reading each PTE with [read src pte_pa].  A non-canonical
    [va], a PTE outside [mem], an invalid PTE, W without R and a
    misaligned superpage are faults; the leaf's permissions are the
    caller's to check ({!leaf_permits}).  The result is one int: the
    4 KiB-level ppn of the page holding [va] and the leaf's flag bits
    ({!leaf_ppn}, {!leaf_flags}, {!leaf_pa}), or {!walk_fault}. *)

val walk_fault : int

val leaf_ppn : int -> int
(** The 4 KiB-level physical page number of a walk's leaf. *)

val leaf_flags : int -> int
(** The leaf PTE's low eight flag bits. *)

val leaf_pa : int -> int64 -> int64
(** [leaf_pa leaf va]: the physical address of [va] through [leaf]. *)


val make_satp : mode:int -> asid:int -> root_pa:int64 -> int64
