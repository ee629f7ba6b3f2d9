(* Load/store unit: load queue, store queue, committed store buffer,
   store-to-load forwarding, and the LR/SC reservation.

   The store buffer is the paper's central source of memory
   non-determinism: stores retire into it at commit and only reach the
   cache hierarchy (and hence the backing memory, other cores, and the
   page-table walker) when drained -- the window that produces the
   speculative page faults of Figure 3 and the multi-core value
   divergences handled by the Global Memory diff-rule. *)

type t = {
  cfg : Config.t;
  dcache : Softmem.Cache.t;
  uops : Uop.t; (* the core's uop rows *)
  (* LQ and SQ: sequence numbers, [0, n) in age order, rest -1 *)
  lq : int array;
  sq : int array;
  mutable lq_n : int;
  mutable sq_n : int;
  (* the store buffer: a ring of [store_buffer_size] slots holding
     [sb_n] committed stores from [sb_head], oldest first; an entry is
     its slot in three columns, the 64-bit ones unboxed *)
  sb_paddr : Bytes.t;
  sb_size : int array;
  sb_data : Bytes.t;
  mutable sb_head : int;
  mutable sb_n : int;
  mutable sb_next_drain : int;
  mutable reservation : (int64 * int) option; (* line addr, cycle set *)
  (* stats *)
  mutable forwards : int;
  mutable blocked_loads : int;
  mutable forward_misses : int; (* loads with no older-store match *)
  mutable drains : int;
  (* fault-injection knobs (campaign harness) *)
  mutable bug_drop_drains : int; (* discard next N drained entries *)
  mutable bug_reorder_drains : int; (* drain next N pairs youngest-first *)
  mutable bug_silent_drains : int; (* next N drains skip on_drain *)
  mutable bug_stall_drain : bool; (* the buffer never drains *)
  mutable bug_no_forward : bool; (* loads ignore pending stores *)
  mutable bug_forward_mask : int64; (* XORed into forwarded data *)
}

let create (cfg : Config.t) ~dcache ~uops =
  {
    cfg;
    dcache;
    uops;
    lq = Array.make cfg.lq_size (-1);
    sq = Array.make cfg.sq_size (-1);
    lq_n = 0;
    sq_n = 0;
    sb_paddr = Bytes.make (8 * cfg.store_buffer_size) '\000';
    sb_size = Array.make cfg.store_buffer_size 0;
    sb_data = Bytes.make (8 * cfg.store_buffer_size) '\000';
    sb_head = 0;
    sb_n = 0;
    sb_next_drain = 0;
    reservation = None;
    forwards = 0;
    blocked_loads = 0;
    forward_misses = 0;
    drains = 0;
    bug_drop_drains = 0;
    bug_reorder_drains = 0;
    bug_silent_drains = 0;
    bug_stall_drain = false;
    bug_no_forward = false;
    bug_forward_mask = 0L;
  }

let lq_occupancy t = t.lq_n

let sq_occupancy t = t.sq_n

let sb_occupancy t = t.sb_n

let sb_full t = t.sb_n >= t.cfg.store_buffer_size

(* The store buffer's 64-bit columns, 8 bytes per slot. *)
let[@inline] sb_get col i = Bytes.get_int64_ne col (i lsl 3)

let[@inline] sb_set col i v = Bytes.set_int64_ne col (i lsl 3) v

(* A uop row's fields, read in place as [Uop.get] and [Uop.get64] do:
   a call per field, and a box per 64-bit read, would cost more than
   the access. *)
let[@inline] row (u : Uop.t) seq = seq land u.Uop.mask

let[@inline] get (u : Uop.t) r f = u.Uop.ints.((r lsl 4) lor f)

let[@inline] flag (u : Uop.t) r b = get u r Uop.i_flags land b <> 0

let[@inline] get64 (u : Uop.t) r f =
  Bytes.get_int64_ne u.Uop.words ((r lsl 6) lor (f lsl 3))

(* The ring slot of the [k]th oldest store-buffer entry. *)
let sb_slot t k = (t.sb_head + k) mod Array.length t.sb_size

let insert_load t seq =
  t.lq.(t.lq_n) <- seq;
  t.lq_n <- t.lq_n + 1

let insert_store t seq =
  t.sq.(t.sq_n) <- seq;
  t.sq_n <- t.sq_n + 1

let drop_squashed t =
  t.lq_n <- Uop.drop_squashed t.uops t.lq t.lq_n;
  t.sq_n <- Uop.drop_squashed t.uops t.sq t.sq_n

(* All older stores have known addresses (conservative load
   scheduling: no memory-dependence speculation, hence no ordering
   violations to replay).  An SQ entry whose row was reused names a
   retired MMIO store (see [Uop.drop_squashed]): its address was known,
   and it never forwards. *)
let older_stores_known t ~(seq : int) =
  let u = t.uops in
  let i = ref 0 in
  while
    !i < t.sq_n
    &&
    let s = t.sq.(!i) in
    let r = s land u.Uop.mask in
    s >= seq || get u r Uop.i_seq <> s || flag u r Uop.b_addr_ready
  do
    incr i
  done;
  !i = t.sq_n

type forward_result = Forward of int64 | Blocked | No_match

let[@inline] ranges_overlap a1 s1 a2 s2 =
  let e1 = Int64.add a1 (Int64.of_int s1) and e2 = Int64.add a2 (Int64.of_int s2) in
  not (e1 <= a2 || e2 <= a1)

let[@inline] contains a1 s1 a2 s2 =
  (* [a2, a2+s2) inside [a1, a1+s1) *)
  a2 >= a1 && Int64.add a2 (Int64.of_int s2) <= Int64.add a1 (Int64.of_int s1)

let extract ~(data : int64) ~(from_addr : int64) ~(at : int64) ~(size : int) =
  let shift = 8 * Int64.to_int (Int64.sub at from_addr) in
  let v = Int64.shift_right_logical data shift in
  if size >= 8 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L (8 * size)) 1L)

(* Look for the youngest older store (store buffer, then SQ) providing
   the bytes of a load: the last covering or overlapping store in
   oldest-to-youngest order decides.  Plain loops over the two queues;
   only a forwarded value allocates. *)
let forward t ~(seq : int) ~(paddr : int64) ~(size : int) : forward_result =
  if t.bug_no_forward then begin
    t.forward_misses <- t.forward_misses + 1;
    No_match
  end
  else begin
    (* 0 = no match, 1 = covered by [data] stored at [from], 2 = a
       partial overlap blocks the load *)
    let hit = ref 0 and data = ref 0L and from = ref 0L in
    (* store buffer first (all older than any in-flight load) *)
    for k = 0 to t.sb_n - 1 do
      let i = sb_slot t k in
      let a = sb_get t.sb_paddr i and n = t.sb_size.(i) in
      if contains a n paddr size then begin
        hit := 1;
        data := sb_get t.sb_data i;
        from := a
      end
      else if ranges_overlap a n paddr size then hit := 2
    done;
    (* then SQ entries older than the load *)
    let u = t.uops in
    for i = 0 to t.sq_n - 1 do
      let s = t.sq.(i) in
      let r = s land u.Uop.mask in
      if
        s < seq
        && get u r Uop.i_seq = s
        && flag u r Uop.b_addr_ready
        && not (flag u r Uop.b_mmio)
      then begin
        let a = get64 u r Uop.w_paddr and n = get u r Uop.i_msize in
        if contains a n paddr size then begin
          hit := 1;
          data := get64 u r Uop.w_sdata;
          from := a
        end
        else if ranges_overlap a n paddr size then hit := 2
      end
    done;
    match !hit with
    | 1 ->
        t.forwards <- t.forwards + 1;
        let v = extract ~data:!data ~from_addr:!from ~at:paddr ~size in
        (* fault: the forwarding mux picks the wrong lanes *)
        Forward
          (if t.bug_forward_mask <> 0L then Int64.logxor v t.bug_forward_mask
           else v)
    | 2 ->
        t.blocked_loads <- t.blocked_loads + 1;
        Blocked
    | _ ->
        t.forward_misses <- t.forward_misses + 1;
        No_match
  end

(* Commit a store: move its data from the SQ to the store buffer.
   Caller must check [sb_full] first. *)
let commit_store t seq =
  assert (not (sb_full t));
  let u = t.uops in
  let r = row u seq in
  let i = sb_slot t t.sb_n in
  sb_set t.sb_paddr i (get64 u r Uop.w_paddr);
  t.sb_size.(i) <- get u r Uop.i_msize;
  sb_set t.sb_data i (get64 u r Uop.w_sdata);
  t.sb_n <- t.sb_n + 1;
  t.sq_n <- Uop.remove_seq t.sq t.sq_n seq

(* Drop the oldest store-buffer entry, returning its slot (read it
   before the next commit can reuse it). *)
let sb_pop t =
  let i = t.sb_head in
  t.sb_head <- sb_slot t 1;
  t.sb_n <- t.sb_n - 1;
  i

let sb_clear_slot t i =
  sb_set t.sb_paddr i 0L;
  sb_set t.sb_data i 0L

let remove_load t seq = t.lq_n <- Uop.remove_seq t.lq t.lq_n seq

(* Write the entry in slot [i] through to the cache and announce it,
   returning the write's latency; the fault knobs model drains that
   are lost, unannounced, or misordered. *)
let drain_one t ~now ~(on_drain : int64 -> int -> unit) i =
  (* one box for the address, shared by the write and the announcement *)
  let paddr = Sys.opaque_identity (sb_get t.sb_paddr i) in
  let size = t.sb_size.(i) in
  let lat =
    Softmem.Cache.write t.dcache ~addr:paddr ~size (sb_get t.sb_data i)
  in
  sb_clear_slot t i;
  t.drains <- t.drains + 1;
  t.sb_next_drain <- now + max t.cfg.sb_drain_interval (lat / 4);
  if t.bug_silent_drains > 0 then t.bug_silent_drains <- t.bug_silent_drains - 1
  else on_drain paddr size;
  lat

(* Pure: would [drain] dequeue an entry at [now]?  Phase 1 of the
   two-phase cycle snapshots this; [drain] itself stays authoritative
   (it re-checks, so a fence that force-drained the buffer between
   snapshot and application degrades to a no-op). *)
let drain_ready t ~now =
  (not t.bug_stall_drain) && t.sb_n > 0 && now >= t.sb_next_drain

(* Drain at most one store-buffer entry into the cache hierarchy.
   [on_drain] lets the SoC invalidate other cores' LR reservations. *)
let drain t ~now ~(on_drain : int64 -> int -> unit) =
  if t.bug_stall_drain then ()
  else if t.sb_n > 0 && now >= t.sb_next_drain then begin
    if t.bug_drop_drains > 0 then begin
      (* fault: the entry leaves the buffer but never reaches memory *)
      sb_clear_slot t (sb_pop t);
      t.bug_drop_drains <- t.bug_drop_drains - 1;
      t.sb_next_drain <- now + t.cfg.sb_drain_interval
    end
    else if t.bug_reorder_drains > 0 && t.sb_n >= 2 then begin
      (* fault: two oldest entries reach memory youngest-first *)
      let a = sb_pop t in
      let b = sb_pop t in
      t.bug_reorder_drains <- t.bug_reorder_drains - 1;
      ignore (drain_one t ~now ~on_drain b);
      ignore (drain_one t ~now ~on_drain a)
    end
    else ignore (drain_one t ~now ~on_drain (sb_pop t))
  end

(* Force-drain everything (fences, AMO ordering). Returns the cycles
   consumed. *)
let drain_all t ~now ~(on_drain : int64 -> int -> unit) : int =
  let lat = ref 0 in
  while t.sb_n > 0 do
    lat := !lat + drain_one t ~now ~on_drain (sb_pop t)
  done;
  t.sb_next_drain <- now + !lat;
  !lat

let set_reservation t ~paddr ~now =
  t.reservation <- Some (Int64.shift_right_logical paddr 6, now)

let clear_reservation t = t.reservation <- None

(* Is the reservation still valid (not timed out, same line)? *)
let reservation_valid t ~paddr ~now =
  match t.reservation with
  | None -> false
  | Some (line, set_at) ->
      line = Int64.shift_right_logical paddr 6
      && now - set_at <= t.cfg.sc_timeout_cycles

(* Another agent stored to [paddr]: kill the reservation if it covers
   the same line. *)
let snoop_invalidate t ~paddr =
  match t.reservation with
  | Some (line, _) when line = Int64.shift_right_logical paddr 6 ->
      t.reservation <- None
  | Some _ | None -> ()
