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
  (* LQ and SQ: [0, n) in age order, free slots hold Uop.sentinel *)
  lq : Uop.t array;
  sq : Uop.t array;
  mutable lq_n : int;
  mutable sq_n : int;
  (* the store buffer: a ring of [store_buffer_size] slots holding
     [sb_n] committed stores from [sb_head], oldest first; an entry is
     its slot in three arrays (freed slots hold 0) *)
  sb_paddr : int64 array;
  sb_size : int array;
  sb_data : int64 array;
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

let create (cfg : Config.t) ~dcache =
  {
    cfg;
    dcache;
    lq = Array.make cfg.lq_size Uop.sentinel;
    sq = Array.make cfg.sq_size Uop.sentinel;
    lq_n = 0;
    sq_n = 0;
    sb_paddr = Array.make cfg.store_buffer_size 0L;
    sb_size = Array.make cfg.store_buffer_size 0;
    sb_data = Array.make cfg.store_buffer_size 0L;
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

(* The ring slot of the [k]th oldest store-buffer entry. *)
let sb_slot t k = (t.sb_head + k) mod Array.length t.sb_paddr

let insert_load t u =
  t.lq.(t.lq_n) <- u;
  t.lq_n <- t.lq_n + 1

let insert_store t u =
  t.sq.(t.sq_n) <- u;
  t.sq_n <- t.sq_n + 1

let live (u : Uop.t) = not u.Uop.squashed

let drop_squashed t =
  t.lq_n <- Uop.compact t.lq t.lq_n ~keep:live;
  t.sq_n <- Uop.compact t.sq t.sq_n ~keep:live

(* All older stores have known addresses (conservative load
   scheduling: no memory-dependence speculation, hence no ordering
   violations to replay). *)
let older_stores_known t ~(seq : int) =
  let i = ref 0 in
  while
    !i < t.sq_n
    &&
    let s = t.sq.(!i) in
    s.Uop.seq >= seq || s.Uop.addr_ready
  do
    incr i
  done;
  !i = t.sq_n

type forward_result = Forward of int64 | Blocked | No_match

let ranges_overlap a1 s1 a2 s2 =
  let e1 = Int64.add a1 (Int64.of_int s1) and e2 = Int64.add a2 (Int64.of_int s2) in
  not (e1 <= a2 || e2 <= a1)

let contains a1 s1 a2 s2 =
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
      let a = t.sb_paddr.(i) and n = t.sb_size.(i) in
      if contains a n paddr size then begin
        hit := 1;
        data := t.sb_data.(i);
        from := a
      end
      else if ranges_overlap a n paddr size then hit := 2
    done;
    (* then SQ entries older than the load *)
    for i = 0 to t.sq_n - 1 do
      let s = t.sq.(i) in
      if s.Uop.seq < seq && s.Uop.addr_ready && not s.Uop.mmio then begin
        if contains s.Uop.paddr s.Uop.msize paddr size then begin
          hit := 1;
          data := s.Uop.sdata;
          from := s.Uop.paddr
        end
        else if ranges_overlap s.Uop.paddr s.Uop.msize paddr size then hit := 2
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
let commit_store t (u : Uop.t) =
  assert (not (sb_full t));
  let i = sb_slot t t.sb_n in
  t.sb_paddr.(i) <- u.Uop.paddr;
  t.sb_size.(i) <- u.Uop.msize;
  t.sb_data.(i) <- u.Uop.sdata;
  t.sb_n <- t.sb_n + 1;
  t.sq_n <- Uop.remove_seq t.sq t.sq_n u.Uop.seq

(* Drop the oldest store-buffer entry, returning its slot (read it
   before the next commit can reuse it). *)
let sb_pop t =
  let i = t.sb_head in
  t.sb_head <- sb_slot t 1;
  t.sb_n <- t.sb_n - 1;
  i

let sb_clear_slot t i =
  t.sb_paddr.(i) <- 0L;
  t.sb_data.(i) <- 0L

let remove_load t (u : Uop.t) = t.lq_n <- Uop.remove_seq t.lq t.lq_n u.Uop.seq

(* Write the entry in slot [i] through to the cache and announce it,
   returning the write's latency; the fault knobs model drains that
   are lost, unannounced, or misordered. *)
let drain_one t ~now ~(on_drain : int64 -> int -> unit) i =
  let paddr = t.sb_paddr.(i) and size = t.sb_size.(i) in
  let lat = Softmem.Cache.write t.dcache ~addr:paddr ~size t.sb_data.(i) in
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
