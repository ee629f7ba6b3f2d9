(** Sv39 page-table entry and virtual-address helpers, shared by the
    reference model's walker, the DUT's hardware walker, and the
    micro-kernel workload that builds page tables.  The access type,
    its page-fault cause and the leaf permission check are defined
    here once for both walkers. *)

val page_shift : int
(** log2 of the page size (12). *)

val page_size : int

val levels : int
(** Sv39 has a 3-level tree. *)

(** Permission/status bit positions within a PTE. *)

val v : int
val r : int
val w : int
val x : int
val u : int
val g : int
val a : int
val d : int

val valid : int64 -> bool
val readable : int64 -> bool
val writable : int64 -> bool
val executable : int64 -> bool
val user : int64 -> bool
val accessed : int64 -> bool
val dirty : int64 -> bool

val is_leaf : int64 -> bool
(** A PTE with any of R/W/X set maps a page; otherwise it points to
    the next table level. *)

val ppn : int64 -> int64
(** Physical page number field of a PTE. *)

val pa_of_ppn : int64 -> int64

val make : pa:int64 -> int list -> int64
(** [make ~pa flags] builds a PTE pointing at [pa] with the given flag
    bit positions set. *)

val vpn : int64 -> int -> int
(** [vpn va level] is the 9-bit table index of [va] at [level]
    (0 = leaf level). *)

val page_offset : int64 -> int

val va_canonical : int64 -> bool
(** Sv39 requires bits 63..39 of a virtual address to equal bit 38. *)

(** {1 Access rules} *)

type access = Fetch | Load | Store

val page_fault : access -> Trap.exc
(** The page-fault cause of a failed translation for [access]. *)

val leaf_permits : Csr.t -> flags:int -> access -> bool
(** Whether a leaf PTE with these flag bits (its low eight) permits
    [access] at the CSR file's privilege, honouring mstatus.SUM and
    mstatus.MXR. *)

val satp_mode : int64 -> int
(** 0 = bare, 8 = Sv39. *)

val satp_ppn : int64 -> int64
val satp_asid : int64 -> int
val root_of_satp : int64 -> int64

val make_satp : mode:int -> asid:int -> root_pa:int64 -> int64
