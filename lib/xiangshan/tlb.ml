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

type mapping = {
  ppn : int64; (* 4K-granular physical page number *)
  pte_flags : int64; (* leaf PTE bits for permission checks *)
}

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

type access = Fetch | Load | Store

let fault_of = function
  | Fetch -> Trap.Fetch_page_fault
  | Load -> Trap.Load_page_fault
  | Store -> Trap.Store_page_fault

type outcome =
  | Translated of int64 (* physical address *)
  | Page_fault of Trap.exc * int64

(* Hardware walk via the cache port; returns the 4K mapping or a fault,
   plus accumulated latency. *)
let walk (t : t) (csr : Csr.t) (va : int64) : (mapping, unit) result * int =
  t.walks <- t.walks + 1;
  if not (Pte.va_canonical va) then (Error (), 4)
  else begin
    let lat = ref 4 (* walker occupancy *) in
    let rec step level table_pa =
      if level < 0 then Error ()
      else begin
        let pte_pa = Int64.add table_pa (Int64.of_int (8 * Pte.vpn va level)) in
        let pte, l = Softmem.Cache.read t.ptw_port ~addr:pte_pa ~size:8 in
        lat := !lat + l;
        if not (Pte.valid pte) then Error ()
        else if (not (Pte.readable pte)) && Pte.writable pte then Error ()
        else if Pte.is_leaf pte then begin
          let ppn = Pte.ppn pte in
          if
            level > 0
            && Int64.logand ppn (Int64.of_int ((1 lsl (9 * level)) - 1)) <> 0L
          then Error ()
          else begin
            (* form the 4K-level ppn for this va *)
            let low_vpns =
              match level with
              | 0 -> 0L
              | 1 -> Int64.of_int (Pte.vpn va 0)
              | _ -> Int64.of_int ((Pte.vpn va 1 lsl 9) lor Pte.vpn va 0)
            in
            Ok { ppn = Int64.add ppn low_vpns; pte_flags = pte }
          end
        end
        else step (level - 1) (Pte.pa_of_ppn (Pte.ppn pte))
      end
    in
    let r = step (Pte.levels - 1) (Pte.root_of_satp csr.Csr.reg_satp) in
    (r, !lat)
  end

let[@inline] has flags bit = flags land (1 lsl bit) <> 0

let check_perms (csr : Csr.t) flags (access : access) : bool =
  let sum = Csr.get_bit csr.Csr.reg_mstatus Csr.st_sum in
  let mxr = Csr.get_bit csr.Csr.reg_mstatus Csr.st_mxr in
  let type_ok =
    match access with
    | Fetch -> has flags Pte.x
    | Load -> has flags Pte.r || (mxr && has flags Pte.x)
    | Store -> has flags Pte.w
  in
  let priv_ok =
    match csr.Csr.priv with
    | Csr.U -> has flags Pte.u
    | Csr.S -> (not (has flags Pte.u)) || (sum && access <> Fetch)
    | Csr.M -> true
  in
  type_ok && priv_ok

(* Translate [va]; returns the outcome and the latency in cycles.  A
   miss always refills the L1 TLB, so the translation is read from
   the L1 slot either way. *)
let translate (t : t) (csr : Csr.t) (va : int64) (access : access) :
    outcome * int =
  let active = csr.Csr.priv <> Csr.M && Pte.satp_mode csr.Csr.reg_satp = 8 in
  if not active then (Translated va, 0)
  else begin
    let vpn = Int64.to_int (Int64.shift_right_logical va 12) in
    let l1 = match access with Fetch -> t.itlb | Load | Store -> t.dtlb in
    let lat = ref 0 in
    let slot = arr_lookup l1 vpn in
    let slot =
      if slot >= 0 then slot
      else begin
        (match access with
        | Fetch -> t.itlb_misses <- t.itlb_misses + 1
        | Load | Store -> t.dtlb_misses <- t.dtlb_misses + 1);
        let s = arr_lookup t.stlb vpn in
        if s >= 0 then begin
          t.stlb_hits <- t.stlb_hits + 1;
          lat := 2;
          arr_insert l1 vpn ~ppn:(Cow.get t.stlb.ppn s)
            ~flags:(Cow.get t.stlb.flags s)
        end
        else begin
          let r, wl = walk t csr va in
          (* invalid PTEs are allowed to be cached (Figure 3) *)
          let ppn, flags =
            match r with
            | Ok m -> (Int64.to_int m.ppn, Int64.to_int m.pte_flags land 0xFF)
            | Error () -> (fault, 0)
          in
          ignore (arr_insert t.stlb vpn ~ppn ~flags);
          lat := 2 + wl;
          arr_insert l1 vpn ~ppn ~flags
        end
      end
    in
    let ppn = Cow.get l1.ppn slot in
    if ppn = fault then begin
      t.cached_fault_hits <- t.cached_fault_hits + 1;
      (Page_fault (fault_of access, va), !lat)
    end
    else if check_perms csr (Cow.get l1.flags slot) access then
      ( Translated
          (Int64.logor
             (Pte.pa_of_ppn (Int64.of_int ppn))
             (Int64.logand va 0xFFFL)),
        !lat )
    else (Page_fault (fault_of access, va), !lat)
  end
