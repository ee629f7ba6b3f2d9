(* Paged copy-on-write store: the one refcount/COW scheme behind
   simulated physical memory ([Memory]) and the simulator's
   micro-architectural tables (cache metadata, predictors, TLBs).

   The software analogue of a process address space under fork: a
   snapshot copies only the directory of owned pages and bumps their
   refcounts; the first write to a shared page copies it (a COW
   fault).  A page that was never written is the store's one shared
   initial page (zero bytes for memory, the table's initial value for
   a table), so creating a store costs one page however large it is
   configured, and snapshotting it costs O(owned pages).

   Invariant: a directory entry is either the initial page (rc 0,
   never written) or an owned page (rc >= 1: the directory plus every
   snapshot holding it), and [live] lists exactly the owned entries. *)

type page = { mutable data : Bytes.t; mutable rc : int }

type t = {
  page_bits : int; (* log2 of the page size in bytes *)
  n_pages : int;
  slot_shift : int; (* page_bits - 3: int slots per page, as a shift *)
  slot_mask : int;
  mutable dir : page array;
  mutable init : page;
  mutable live : int array; (* owned page indices, first [n_live] *)
  mutable n_live : int;
  mutable stat_cow_faults : int;
  mutable stat_pages_allocated : int;
  mutable stat_snapshots : int;
}

type snapshot = { s_init : page; s_idx : int array; s_pages : page array }

let create ~page_bits ~n_pages ~(init : Bytes.t) =
  if Bytes.length init <> 1 lsl page_bits then
    invalid_arg "Cow.create: initial page size";
  let init = { data = init; rc = 0 } in
  {
    page_bits;
    n_pages;
    slot_shift = page_bits - 3;
    slot_mask = (1 lsl (page_bits - 3)) - 1;
    dir = Array.make n_pages init;
    init;
    live = [||];
    n_live = 0;
    stat_cow_faults = 0;
    stat_pages_allocated = 0;
    stat_snapshots = 0;
  }

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Pages of a sized store are 4 KiB; a smaller store gets one page of
   its own size, so copying it on a fault costs no more than it. *)
let max_page_bits = 12

let sized ~bytes ~fill =
  let rec bits b =
    if b >= max_page_bits || 1 lsl b >= bytes then b else bits (b + 1)
  in
  let page_bits = bits 3 in
  let page = Bytes.create (1 lsl page_bits) in
  fill page;
  create ~page_bits
    ~n_pages:((max 1 bytes + (1 lsl page_bits) - 1) lsr page_bits)
    ~init:page

let page_bits t = t.page_bits

let n_pages t = t.n_pages

let table ~slots ~init =
  sized ~bytes:(8 * slots) ~fill:(fun page ->
      for k = 0 to (Bytes.length page / 8) - 1 do
        set64u page (8 * k) (Int64.of_int init)
      done)

(* --- page resolution -------------------------------------------------- *)

let read_page t idx = t.dir.(idx).data

let own t idx =
  let n = Array.length t.live in
  if t.n_live = n then begin
    let live = Array.make (max 8 (2 * n)) 0 in
    Array.blit t.live 0 live 0 n;
    t.live <- live
  end;
  t.live.(t.n_live) <- idx;
  t.n_live <- t.n_live + 1

(* The first write to the initial page allocates; the first write to
   a shared page copies it.  Either way the written page is a fresh
   private copy. *)
let fault t idx =
  let p = t.dir.(idx) in
  let fresh = { data = Bytes.copy p.data; rc = 1 } in
  if p.rc = 0 then begin
    own t idx;
    t.stat_pages_allocated <- t.stat_pages_allocated + 1
  end
  else begin
    p.rc <- p.rc - 1;
    t.stat_cow_faults <- t.stat_cow_faults + 1
  end;
  t.dir.(idx) <- fresh;
  fresh.data

let[@inline] write_page t idx =
  let p = t.dir.(idx) in
  if p.rc = 1 then p.data else fault t idx

(* --- int-slot tables ------------------------------------------------- *)

let[@inline] get t i =
  Int64.to_int
    (get64u (t.dir.(i lsr t.slot_shift)).data ((i land t.slot_mask) lsl 3))

let[@inline] set t i v =
  set64u
    (write_page t (i lsr t.slot_shift))
    ((i land t.slot_mask) lsl 3)
    (Int64.of_int v)

let slots t = t.n_pages lsl t.slot_shift

(* Scans walk the slots page by page, reading each page in place. *)

let find t ~from ~until v =
  let r = ref (-1) and i = ref (max 0 from) in
  while !r < 0 && !i < until do
    let page = t.dir.(!i lsr t.slot_shift).data in
    let stop = min until ((!i lor t.slot_mask) + 1) in
    while !r < 0 && !i < stop do
      if Int64.to_int (get64u page ((!i land t.slot_mask) lsl 3)) = v then
        r := !i;
      incr i
    done
  done;
  !r

let argmin t ~until =
  let best = ref 0 and best_v = ref (get t 0) and i = ref 0 in
  while !i < until do
    let page = t.dir.(!i lsr t.slot_shift).data in
    let stop = min until ((!i lor t.slot_mask) + 1) in
    while !i < stop do
      let x = Int64.to_int (get64u page ((!i land t.slot_mask) lsl 3)) in
      if x < !best_v then begin
        best := !i;
        best_v := x
      end;
      incr i
    done
  done;
  !best

(* Back to the initial contents: every owned page is dropped. *)
let clear t =
  for k = 0 to t.n_live - 1 do
    let i = t.live.(k) in
    let p = t.dir.(i) in
    p.rc <- p.rc - 1;
    t.dir.(i) <- t.init
  done;
  t.n_live <- 0

(* --- snapshots ------------------------------------------------------- *)

let snapshot t =
  let s_idx = Array.sub t.live 0 t.n_live in
  let s_pages = Array.map (fun i -> t.dir.(i)) s_idx in
  Array.iter (fun p -> p.rc <- p.rc + 1) s_pages;
  t.stat_snapshots <- t.stat_snapshots + 1;
  { s_init = t.init; s_idx; s_pages }

let release s = Array.iter (fun p -> p.rc <- p.rc - 1) s.s_pages

(* The snapshot keeps its references, so it can be restored again.  A
   detached store (an unmarshalled LightSSS image) gets a fresh
   directory; an attached one resets only its owned entries. *)
let restore t s =
  if Array.length t.dir = t.n_pages && t.init == s.s_init then clear t
  else begin
    for k = 0 to t.n_live - 1 do
      let p = t.dir.(t.live.(k)) in
      p.rc <- p.rc - 1
    done;
    t.dir <- Array.make t.n_pages s.s_init;
    t.init <- s.s_init
  end;
  Array.iteri
    (fun k i ->
      let p = s.s_pages.(k) in
      p.rc <- p.rc + 1;
      t.dir.(i) <- p)
    s.s_idx;
  t.live <- Array.copy s.s_idx;
  t.n_live <- Array.length s.s_idx

(* --- detaching for LightSSS ------------------------------------------ *)

type detached = {
  d_dir : page array;
  d_init : page;
  d_live : int array;
  d_n_live : int;
}

let placeholder = { data = Bytes.empty; rc = 0 }

let detach t =
  let d =
    { d_dir = t.dir; d_init = t.init; d_live = t.live; d_n_live = t.n_live }
  in
  t.dir <- [||];
  t.init <- placeholder;
  t.live <- [||];
  t.n_live <- 0;
  d

let reattach t d =
  t.dir <- d.d_dir;
  t.init <- d.d_init;
  t.live <- d.d_live;
  t.n_live <- d.d_n_live

(* --- whole-store operations ------------------------------------------ *)

(* O(owned pages): the SSS baseline's full copy. *)
let deep_copy t =
  let dir = Array.copy t.dir in
  for k = 0 to t.n_live - 1 do
    let i = t.live.(k) in
    dir.(i) <- { data = Bytes.copy dir.(i).data; rc = 1 }
  done;
  { t with dir; live = Array.copy t.live }

let iter_pages t f = Array.iteri (fun i p -> if p.rc > 0 then f i p.data) t.dir

let allocated_pages t = t.n_live

let shared_pages t =
  let n = ref 0 in
  for k = 0 to t.n_live - 1 do
    if t.dir.(t.live.(k)).rc > 1 then incr n
  done;
  !n

type stats = { cow_faults : int; pages_allocated : int; snapshots : int }

let stats t =
  {
    cow_faults = t.stat_cow_faults;
    pages_allocated = t.stat_pages_allocated;
    snapshots = t.stat_snapshots;
  }

let reset_stats t =
  t.stat_cow_faults <- 0;
  t.stat_pages_allocated <- 0;
  t.stat_snapshots <- 0

