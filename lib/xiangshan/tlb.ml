(* L1 TLBs + STLB + hardware page-table walker.

   The walker reads PTEs *through the cache hierarchy* (its own port
   below L2, like XiangShan's PTW), so it sees memory as of the last
   store-buffer drain -- not the core's committed-but-undrained
   stores.  Combined with the deliberate caching of failed
   translations until an sfence.vma, this reproduces the speculative
   page-fault behaviour of Figure 3: the micro-kernel's lazy PTE write
   can be retired but not yet visible when the walker runs, and the
   resulting (legal!) page fault diverges from the REF until the
   page-fault diff-rule reconciles them. *)

open Riscv

module Cow = Riscv.Cow

(* One TLB level, flat: slot [i] across four copy-on-write tables, so
   a LightSSS snapshot shares their pages instead of marshalling one
   record per entry, and a lookup allocates nothing. *)
type tlb_array = {
  size : int;
  vpn : Cow.t; (* -1 invalid *)
  ppn : Cow.t; (* 4K-granular physical page number, or [fault] *)
  flags : Cow.t; (* the leaf PTE's flag bits, for permission checks *)
  lru : Cow.t;
  mutable clock : int;
}

(* A failed walk, cached until the next sfence.vma (Figure 3). *)
let fault = -1

let make_array n =
  {
    size = n;
    vpn = Cow.table ~slots:n ~init:(-1);
    ppn = Cow.table ~slots:n ~init:fault;
    flags = Cow.table ~slots:n ~init:0;
    lru = Cow.table ~slots:n ~init:0;
    clock = 0;
  }

(* Bump every slot holding [vpn] from [from] on to most recently used;
   the last one's slot, or [found]. *)
let rec bump (a : tlb_array) vpn ~from found =
  let i = Cow.find a.vpn ~from ~until:a.size vpn in
  if i < 0 then found
  else begin
    a.clock <- a.clock + 1;
    Cow.set a.lru i a.clock;
    bump a vpn ~from:(i + 1) i
  end

(* The slot of the last entry holding [vpn], or -1; every match
   becomes the most recently used. *)
let arr_lookup (a : tlb_array) vpn = bump a vpn ~from:0 (-1)

(* Refill the first least recently used slot; returns it. *)
let arr_insert (a : tlb_array) vpn ~ppn ~flags =
  a.clock <- a.clock + 1;
  let v = Cow.argmin a.lru ~until:a.size in
  Cow.set a.vpn v vpn;
  Cow.set a.ppn v ppn;
  Cow.set a.flags v flags;
  Cow.set a.lru v a.clock;
  v

(* Drops every translation, faults included; the LRU order stays. *)
let arr_flush (a : tlb_array) =
  Cow.clear a.vpn;
  Cow.clear a.ppn;
  Cow.clear a.flags

let arr_tables (a : tlb_array) = [ a.vpn; a.ppn; a.flags; a.lru ]

type t = {
  itlb : tlb_array;
  dtlb : tlb_array;
  stlb : tlb_array;
  ptw_port : Softmem.Cache.t;
  mutable walks : int;
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  mutable stlb_hits : int; (* L1 misses served by the shared L2 TLB *)
  mutable cached_fault_hits : int;
  (* the last [translate]'s outcome: reported into these, so a
     translation allocates nothing *)
  mutable faulted : bool;
  mutable exc : Trap.exc; (* the page fault's cause, with [faulted] *)
  mutable latency : int;
  pa : Bytes.t; (* the physical address, unboxed, without [faulted] *)
}

let create (cfg : Config.t) ~ptw_port =
  {
    itlb = make_array cfg.itlb_entries;
    dtlb = make_array cfg.dtlb_entries;
    stlb = make_array cfg.stlb_entries;
    ptw_port;
    walks = 0;
    itlb_misses = 0;
    dtlb_misses = 0;
    stlb_hits = 0;
    cached_fault_hits = 0;
    faulted = false;
    exc = Trap.Fetch_page_fault;
    latency = 0;
    pa = Bytes.make 8 '\000';
  }

let flush t =
  arr_flush t.itlb;
  arr_flush t.dtlb;
  arr_flush t.stlb

(* Fault injection: force the low ppn bit of every cached data-side
   mapping (dtlb + stlb), as if a PTE write had been missed -- loads
   and stores then hit the neighbouring physical page while the walker
   and the REF still agree on the real one.  The itlb is left intact
   so the corruption surfaces as data divergence, not fetch garbage.
   OR rather than XOR so a periodic re-injection never heals an
   already-corrupted entry.  Returns the entries newly corrupted. *)
let corrupt_data_ppn (t : t) : int =
  let n = ref 0 in
  let corrupt (a : tlb_array) =
    for i = 0 to a.size - 1 do
      let ppn = Cow.get a.ppn i in
      if Cow.get a.vpn i >= 0 && ppn <> fault && ppn land 1 = 0 then begin
        Cow.set a.ppn i (ppn lor 1);
        incr n
      end
    done
  in
  corrupt t.dtlb;
  corrupt t.stlb;
  !n

let tables (t : t) = arr_tables t.itlb @ arr_tables t.dtlb @ arr_tables t.stlb

(* The walker reads each PTE through its cache port and adds the
   port's latency to [latency]. *)
let read_pte t pte_pa =
  let pte, lat = Softmem.Cache.read t.ptw_port ~addr:pte_pa ~size:8 in
  t.latency <- t.latency + lat;
  pte

let[@inline] paddr t = Bytes.get_int64_ne t.pa 0

let[@inline] translated t ~lat pa =
  t.faulted <- false;
  t.latency <- lat;
  Bytes.set_int64_ne t.pa 0 pa

let page_fault t ~lat access =
  t.faulted <- true;
  t.exc <- Pte.page_fault access;
  t.latency <- lat

(* Translate [va] under an active satp: a miss always refills the L1
   TLB, so the translation is read from the L1 slot either way. *)
let translate_paged (t : t) (csr : Csr.t) (va : int64) (access : Pte.access) =
  let vpn = Int64.to_int (Int64.shift_right_logical va 12) in
  let l1 =
    match access with Pte.Fetch -> t.itlb | Pte.Load | Pte.Store -> t.dtlb
  in
  let lat = ref 0 in
  let slot = arr_lookup l1 vpn in
  let slot =
    if slot >= 0 then slot
    else begin
      (match access with
      | Pte.Fetch -> t.itlb_misses <- t.itlb_misses + 1
      | Pte.Load | Pte.Store -> t.dtlb_misses <- t.dtlb_misses + 1);
      let s = arr_lookup t.stlb vpn in
      if s >= 0 then begin
        t.stlb_hits <- t.stlb_hits + 1;
        lat := 2;
        arr_insert l1 vpn ~ppn:(Cow.get t.stlb.ppn s)
          ~flags:(Cow.get t.stlb.flags s)
      end
      else begin
        t.walks <- t.walks + 1;
        t.latency <- 4 (* walker occupancy *);
        let leaf =
          Pte.walk read_pte t t.ptw_port.Softmem.Cache.backing
            ~satp:csr.Csr.reg_satp va
        in
        (* invalid PTEs are allowed to be cached (Figure 3) *)
        let ppn, flags =
          if leaf = Pte.walk_fault then (fault, 0)
          else (Pte.leaf_ppn leaf, Pte.leaf_flags leaf)
        in
        ignore (arr_insert t.stlb vpn ~ppn ~flags);
        lat := 2 + t.latency;
        arr_insert l1 vpn ~ppn ~flags
      end
    end
  in
  let ppn = Cow.get l1.ppn slot in
  if ppn = fault then begin
    t.cached_fault_hits <- t.cached_fault_hits + 1;
    page_fault t ~lat:!lat access
  end
  else if Pte.leaf_permits csr ~flags:(Cow.get l1.flags slot) access then
    translated t ~lat:!lat
      (Int64.logor
         (Pte.pa_of_ppn (Int64.of_int ppn))
         (Int64.logand va 0xFFFL))
  else page_fault t ~lat:!lat access

(* Translate [va], reporting into [faulted], [exc], [latency] and
   [pa].  Bare and M-mode translation is inlined at the call site, so
   it boxes no address. *)
let[@inline] translate (t : t) (csr : Csr.t) (va : int64) (access : Pte.access)
    =
  if not (Pte.translation_active csr) then translated t ~lat:0 va
  else translate_paged t csr va access
