(* Paged physical memory with copy-on-write snapshots.

   The pages live in a [Cow] store, the copy-on-write scheme shared
   with the simulator's micro-architectural tables: a snapshot copies
   only the directory of written pages (like [fork] copying page
   tables) and marks them shared; the first write to a shared page
   copies it (a COW fault).  LightSSS builds its fork()-style
   snapshots on top of this, and the SSS baseline deliberately
   bypasses it with a full image copy.

   Pages are allocated lazily: a page that has never been written reads
   as the store's shared zero page and costs nothing to snapshot.

   The access paths are the interpreter engines' memory fast path: the
   common widths go through [Bytes.get/set_int64_le]-family primitives
   rather than byte-at-a-time assembly, and a one-entry last-page cache
   (separate for reads and writes) skips the page-table indexing on
   sequential access.  The caches are invalidated whenever the
   directory changes under them (snapshot, restore, detach). *)

type t = {
  base : int64; (* physical base address *)
  page_bits : int;
  store : Cow.t; (* never-written pages read as the zero page *)
  (* last-page caches: [cache_*_idx] = -1 when invalid *)
  mutable cache_r_idx : int;
  mutable cache_r_data : Bytes.t;
  mutable cache_w_idx : int;
  mutable cache_w_data : Bytes.t;
}

type snapshot = Cow.snapshot

let page_size t = 1 lsl t.page_bits

let create ?(page_bits = 12) ~base ~size () =
  let psz = 1 lsl page_bits in
  {
    base;
    page_bits;
    store =
      Cow.create ~page_bits
        ~n_pages:((size + psz - 1) / psz)
        ~init:(Bytes.make psz '\000');
    cache_r_idx = -1;
    cache_r_data = Bytes.empty;
    cache_w_idx = -1;
    cache_w_data = Bytes.empty;
  }

let size t = Cow.n_pages t.store * page_size t

let base t = t.base

let store t = t.store

let[@inline] in_range t addr =
  let off = Int64.sub addr t.base in
  off >= 0L && off < Int64.of_int (size t)

(* Also drops the [Bytes.t] references so a detached [t] (LightSSS
   marshalling) does not smuggle page data into the image. *)
let invalidate_caches t =
  t.cache_r_idx <- -1;
  t.cache_r_data <- Bytes.empty;
  t.cache_w_idx <- -1;
  t.cache_w_data <- Bytes.empty

let offset_exn t addr =
  let off = Int64.to_int (Int64.sub addr t.base) in
  if off < 0 || off >= size t then
    invalid_arg
      (Printf.sprintf "Memory: physical address 0x%Lx out of range" addr);
  off

(* Read path: never allocates.  An unwritten page reads (and caches)
   the store's shared zero page. *)
let read_page t idx =
  if idx = t.cache_r_idx then t.cache_r_data
  else begin
    let d = Cow.read_page t.store idx in
    t.cache_r_idx <- idx;
    t.cache_r_data <- d;
    d
  end

(* Write path: the store allocates or resolves COW sharing; a read
   cache on the same page follows the page to its writable copy. *)
let write_page t idx =
  if idx = t.cache_w_idx then t.cache_w_data
  else begin
    let d = Cow.write_page t.store idx in
    t.cache_w_idx <- idx;
    t.cache_w_data <- d;
    if t.cache_r_idx = idx then t.cache_r_data <- d;
    d
  end

let read_u8 t addr =
  let off = offset_exn t addr in
  Char.code
    (Bytes.unsafe_get
       (read_page t (off lsr t.page_bits))
       (off land (page_size t - 1)))

let write_u8 t addr v =
  let off = offset_exn t addr in
  Bytes.unsafe_set
    (write_page t (off lsr t.page_bits))
    (off land (page_size t - 1))
    (Char.chr (v land 0xFF))

(* Single-page fast paths for the common widths (a naturally aligned
   access never straddles a page); accesses that do straddle fall back
   to byte-by-byte. *)

let read_bytes_slow t addr n =
  let rec go acc i =
    if i < 0 then acc
    else
      go
        (Int64.logor
           (Int64.shift_left acc 8)
           (Int64.of_int (read_u8 t (Int64.add addr (Int64.of_int i)))))
        (i - 1)
  in
  go 0L (n - 1)

let write_bytes_slow t addr n v =
  for i = 0 to n - 1 do
    write_u8 t
      (Int64.add addr (Int64.of_int i))
      (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
  done

let read_u64 t addr =
  let off = offset_exn t addr in
  let poff = off land (page_size t - 1) in
  if poff + 8 <= page_size t then
    Bytes.get_int64_le (read_page t (off lsr t.page_bits)) poff
  else read_bytes_slow t addr 8

let read_u32 t addr =
  let off = offset_exn t addr in
  let poff = off land (page_size t - 1) in
  if poff + 4 <= page_size t then
    Int32.to_int (Bytes.get_int32_le (read_page t (off lsr t.page_bits)) poff)
    land 0xFFFFFFFF
  else Int64.to_int (read_bytes_slow t addr 4)

let read_u16 t addr =
  let off = offset_exn t addr in
  let poff = off land (page_size t - 1) in
  if poff + 2 <= page_size t then
    Bytes.get_uint16_le (read_page t (off lsr t.page_bits)) poff
  else Int64.to_int (read_bytes_slow t addr 2)

let write_u64 t addr v =
  let off = offset_exn t addr in
  let poff = off land (page_size t - 1) in
  if poff + 8 <= page_size t then
    Bytes.set_int64_le (write_page t (off lsr t.page_bits)) poff v
  else write_bytes_slow t addr 8 v

let write_u32 t addr v =
  let off = offset_exn t addr in
  let poff = off land (page_size t - 1) in
  if poff + 4 <= page_size t then
    Bytes.set_int32_le
      (write_page t (off lsr t.page_bits))
      poff (Int32.of_int v)
  else write_bytes_slow t addr 4 (Int64.of_int (v land 0xFFFFFFFF))

let write_u16 t addr v =
  let off = offset_exn t addr in
  let poff = off land (page_size t - 1) in
  if poff + 2 <= page_size t then
    Bytes.set_uint16_le (write_page t (off lsr t.page_bits)) poff (v land 0xFFFF)
  else write_bytes_slow t addr 2 (Int64.of_int (v land 0xFFFF))

let read_bytes_le t addr n =
  match n with
  | 8 -> read_u64 t addr
  | 4 -> Int64.of_int (read_u32 t addr)
  | 2 -> Int64.of_int (read_u16 t addr)
  | 1 -> Int64.of_int (read_u8 t addr)
  | _ ->
      ignore (offset_exn t addr);
      read_bytes_slow t addr n

let write_bytes_le t addr n v =
  match n with
  | 8 -> write_u64 t addr v
  | 4 -> write_u32 t addr (Int64.to_int v land 0xFFFFFFFF)
  | 2 -> write_u16 t addr (Int64.to_int v land 0xFFFF)
  | 1 -> write_u8 t addr (Int64.to_int v land 0xFF)
  | _ ->
      ignore (offset_exn t addr);
      write_bytes_slow t addr n v

let load_program t ~addr (words : int32 array) =
  Array.iteri
    (fun i w ->
      write_u32 t
        (Int64.add addr (Int64.of_int (4 * i)))
        (Int32.to_int w land 0xFFFFFFFF))
    words

(* --- Snapshots ------------------------------------------------------ *)

let snapshot t =
  (* shared pages must COW on the next write *)
  t.cache_w_idx <- -1;
  t.cache_w_data <- Bytes.empty;
  Cow.snapshot t.store

let release_snapshot = Cow.release

let restore t (s : snapshot) =
  Cow.restore t.store s;
  invalidate_caches t

(* Full deep copy: the SSS baseline. O(memory) rather than O(page table). *)
let deep_copy t =
  {
    t with
    store = Cow.deep_copy t.store;
    cache_r_idx = -1;
    cache_r_data = Bytes.empty;
    cache_w_idx = -1;
    cache_w_data = Bytes.empty;
  }

let iter_pages t f = Cow.iter_pages t.store f

let allocated_pages t = Cow.allocated_pages t.store

type stats = Cow.stats = {
  cow_faults : int;
  pages_allocated : int;
  snapshots : int;
}

let stats t = Cow.stats t.store

let reset_stats t = Cow.reset_stats t.store
