(* Load/store unit: load queue, store queue, committed store buffer,
   store-to-load forwarding, and the LR/SC reservation.

   The store buffer is the paper's central source of memory
   non-determinism: stores retire into it at commit and only reach the
   cache hierarchy (and hence the backing memory, other cores, and the
   page-table walker) when drained -- the window that produces the
   speculative page faults of Figure 3 and the multi-core value
   divergences handled by the Global Memory diff-rule. *)

type sb_entry = { sb_paddr : int64; sb_size : int; sb_data : int64 }

type t = {
  cfg : Config.t;
  dcache : Softmem.Cache.t;
  (* LQ and SQ: [0, n) in age order, free slots hold Uop.sentinel *)
  lq : Uop.t array;
  sq : Uop.t array;
  mutable lq_n : int;
  mutable sq_n : int;
  sb : sb_entry Queue.t;
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
    sb = Queue.create ();
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

let sb_occupancy t = Queue.length t.sb

let sb_full t = Queue.length t.sb >= t.cfg.store_buffer_size

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

(* Look for the youngest older store (SQ, then store buffer) providing
   the bytes of a load. *)
let forward t ~(seq : int) ~(paddr : int64) ~(size : int) : forward_result =
  if t.bug_no_forward then begin
    t.forward_misses <- t.forward_misses + 1;
    No_match
  end
  else begin
  let best : forward_result ref = ref No_match in
  (* store buffer first (all older than any in-flight load), oldest to
     youngest so younger matches override *)
  Queue.iter
    (fun (e : sb_entry) ->
      if contains e.sb_paddr e.sb_size paddr size then
        best := Forward (extract ~data:e.sb_data ~from_addr:e.sb_paddr ~at:paddr ~size)
      else if ranges_overlap e.sb_paddr e.sb_size paddr size then best := Blocked)
    t.sb;
  (* then SQ entries older than the load, oldest to youngest *)
  for i = 0 to t.sq_n - 1 do
    let s = t.sq.(i) in
    if s.Uop.seq < seq && s.Uop.addr_ready && not s.Uop.mmio then begin
      if contains s.Uop.paddr s.Uop.msize paddr size then
        best :=
          Forward
            (extract ~data:s.Uop.sdata ~from_addr:s.Uop.paddr ~at:paddr ~size)
      else if ranges_overlap s.Uop.paddr s.Uop.msize paddr size then
        best := Blocked
    end
  done;
  (match !best with
  | Forward _ -> t.forwards <- t.forwards + 1
  | Blocked -> t.blocked_loads <- t.blocked_loads + 1
  | No_match -> t.forward_misses <- t.forward_misses + 1);
  (* fault: the forwarding mux picks the wrong lanes *)
  match !best with
  | Forward v when t.bug_forward_mask <> 0L ->
      Forward (Int64.logxor v t.bug_forward_mask)
  | r -> r
  end

(* Commit a store: move its data from the SQ to the store buffer.
   Caller must check [sb_full] first. *)
let commit_store t (u : Uop.t) =
  assert (not (sb_full t));
  Queue.add { sb_paddr = u.Uop.paddr; sb_size = u.Uop.msize; sb_data = u.Uop.sdata } t.sb;
  t.sq_n <- Uop.remove_seq t.sq t.sq_n u.Uop.seq

let remove_load t (u : Uop.t) = t.lq_n <- Uop.remove_seq t.lq t.lq_n u.Uop.seq

(* Write one entry through to the cache and announce it; the fault
   knobs model drains that are lost, unannounced, or misordered. *)
let drain_one t ~now ~(on_drain : int64 -> int -> unit) (e : sb_entry) =
  let lat = Softmem.Cache.write t.dcache ~addr:e.sb_paddr ~size:e.sb_size e.sb_data in
  t.drains <- t.drains + 1;
  t.sb_next_drain <- now + max t.cfg.sb_drain_interval (lat / 4);
  if t.bug_silent_drains > 0 then t.bug_silent_drains <- t.bug_silent_drains - 1
  else on_drain e.sb_paddr e.sb_size

(* Pure: would [drain] dequeue an entry at [now]?  Phase 1 of the
   two-phase cycle snapshots this; [drain] itself stays authoritative
   (it re-checks, so a fence that force-drained the buffer between
   snapshot and application degrades to a no-op). *)
let drain_ready t ~now =
  (not t.bug_stall_drain)
  && (not (Queue.is_empty t.sb))
  && now >= t.sb_next_drain

(* Drain at most one store-buffer entry into the cache hierarchy.
   [on_drain] lets the SoC invalidate other cores' LR reservations. *)
let drain t ~now ~(on_drain : int64 -> int -> unit) =
  if t.bug_stall_drain then ()
  else if (not (Queue.is_empty t.sb)) && now >= t.sb_next_drain then begin
    if t.bug_drop_drains > 0 then begin
      (* fault: the entry leaves the buffer but never reaches memory *)
      ignore (Queue.pop t.sb);
      t.bug_drop_drains <- t.bug_drop_drains - 1;
      t.sb_next_drain <- now + t.cfg.sb_drain_interval
    end
    else if t.bug_reorder_drains > 0 && Queue.length t.sb >= 2 then begin
      (* fault: two oldest entries reach memory youngest-first *)
      let a = Queue.pop t.sb in
      let b = Queue.pop t.sb in
      t.bug_reorder_drains <- t.bug_reorder_drains - 1;
      drain_one t ~now ~on_drain b;
      drain_one t ~now ~on_drain a
    end
    else drain_one t ~now ~on_drain (Queue.pop t.sb)
  end

(* Force-drain everything (fences, AMO ordering). Returns the cycles
   consumed. *)
let drain_all t ~now ~(on_drain : int64 -> int -> unit) : int =
  let lat = ref 0 in
  while not (Queue.is_empty t.sb) do
    let e = Queue.pop t.sb in
    lat := !lat + Softmem.Cache.write t.dcache ~addr:e.sb_paddr ~size:e.sb_size e.sb_data;
    t.drains <- t.drains + 1;
    if t.bug_silent_drains > 0 then
      t.bug_silent_drains <- t.bug_silent_drains - 1
    else on_drain e.sb_paddr e.sb_size
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
