(* Coherent cache hierarchy, transaction-level.

   Abstraction (documented in DESIGN.md): data is write-through to the
   single backing physical memory, while each cache level runs a real
   coherence *metadata* state machine -- tags, permissions, an
   inclusive sharers directory, probes and grants -- and computes
   latencies.  This preserves everything the experiments observe:
   hit/miss and capacity behaviour (Figure 12's LLC sweep), coherence
   transactions for the diff-rules and the permission scoreboard
   (§III-B2b), probe traffic between cores, and the Acquire/Probe race
   window used to reproduce the §IV-C debugging case study (the
   injected bug captures the pre-write line image and serves it to the
   requesting core, exactly "L2 grants the wrong data upward to L1").

   Timing is accumulated along the recursive resolution of each
   transaction; concurrency across misses is modelled by the LSU,
   which keeps several transactions in flight (MSHR-style) with
   independent completion times. *)

type parent = Dram of Dram.t | Cache of t

and t = {
  name : string;
  sets : int;
  ways : int;
  line_shift : int;
  hit_latency : int;
  (* Line metadata, struct-of-arrays over [sets * ways] slots,
     row-major by set, in copy-on-write tables: a LightSSS snapshot
     shares their pages instead of marshalling them, and a table that
     was never written is one shared page, so a large LLC costs
     nothing to create. *)
  tags : Riscv.Cow.t; (* line index (addr >> line_shift); -1 invalid *)
  perms : Riscv.Cow.t; (* Perm.rank *)
  sharers : Riscv.Cow.t; (* bitmask of children holding >= Branch *)
  owners : Riscv.Cow.t; (* child holding Trunk, -1 if none *)
  last_use : Riscv.Cow.t;
  inflight_until : Riscv.Cow.t; (* fill outstanding until this cycle *)
  mutable parent : parent;
  mutable children : t array;
  mutable child_id : int; (* index of this node among parent's children *)
  backing : Riscv.Memory.t;
  mutable sink : Event.sink;
  mutable now : int; (* advanced by the owner SoC every cycle *)
  (* fault injection for the §IV-C case study *)
  mutable bug_probe_race : bool;
  (* fault injection for the permission-scoreboard rules: grant Trunk
     without probing the other sharers first *)
  mutable bug_skip_probe : bool;
  poisoned : (int64, Bytes.t) Hashtbl.t;
  (* statistics *)
  mutable s_accesses : int;
  mutable s_misses : int;
  mutable s_refills : int;
  mutable s_probes : int;
  mutable s_evictions : int;
  (* MSHR-saturation probe: [mshr_cap] outstanding fills are free; a
     miss that begins while a fill window already holds [mshr_cap]
     overlapping fills counts as a saturation event.  0 = untracked. *)
  mutable mshr_cap : int;
  mutable fill_win_until : int;
  mutable fill_win_count : int;
  mutable s_mshr_sat : int;
}

module Cow = Riscv.Cow

let nothing = Perm.rank Perm.Nothing

let branch = Perm.rank Perm.Branch

let line_bytes t = 1 lsl t.line_shift

let line_addr t addr = Int64.shift_right_logical addr t.line_shift

let base_of_la t la = Int64.shift_left la t.line_shift

let create ~name ~size_bytes ~ways ~line_shift ~hit_latency ~backing () =
  let line_b = 1 lsl line_shift in
  let sets = max 1 (size_bytes / line_b / ways) in
  let n = sets * ways in
  {
    name;
    sets;
    ways;
    line_shift;
    hit_latency;
    tags = Cow.table ~slots:n ~init:(-1);
    perms = Cow.table ~slots:n ~init:nothing;
    sharers = Cow.table ~slots:n ~init:0;
    owners = Cow.table ~slots:n ~init:(-1);
    last_use = Cow.table ~slots:n ~init:0;
    inflight_until = Cow.table ~slots:n ~init:0;
    parent = Dram (Dram.create (Dram.Fixed_amat 100));
    children = [||];
    child_id = 0;
    backing;
    sink = Event.null_sink;
    now = 0;
    bug_probe_race = false;
    bug_skip_probe = false;
    poisoned = Hashtbl.create 8;
    s_accesses = 0;
    s_misses = 0;
    s_refills = 0;
    s_probes = 0;
    s_evictions = 0;
    mshr_cap = 0;
    fill_win_until = 0;
    fill_win_count = 0;
    s_mshr_sat = 0;
  }

let set_parent child parent =
  child.parent <- Cache parent;
  parent.children <- Array.append parent.children [| child |];
  child.child_id <- Array.length parent.children - 1

let set_dram node dram = node.parent <- Dram dram

(* Propagate the event sink and clock down a hierarchy. *)
let rec iter_tree node f =
  f node;
  Array.iter (fun c -> iter_tree c f) node.children

let emit t xact ~child ~la =
  t.sink { Event.cycle = t.now; node = t.name; child; xact; addr = base_of_la t la }

(* A line index always fits in an [int]: it is a 64-bit address
   shifted right by [line_shift] >= 1. *)
let set_index t la = Int64.to_int la mod t.sets

(* The slot holding [la], or -1.  Loops over local refs rather than a
   local recursive function, which would allocate a closure per call. *)
let lookup t la : int =
  let tag = Int64.to_int la in
  let i = ref (set_index t la * t.ways) in
  let stop = !i + t.ways in
  while
    !i < stop && not (Cow.get t.tags !i = tag && Cow.get t.perms !i <> nothing)
  do
    incr i
  done;
  if !i < stop then !i else -1

(* The slot to refill for [la]: the first invalid way of its set, else
   the least recently used one. *)
let victim t la : int =
  let base = set_index t la * t.ways in
  let stop = base + t.ways in
  let i = ref base and best = ref base in
  while !i < stop && Cow.get t.perms !i <> nothing do
    if Cow.get t.last_use !i < Cow.get t.last_use !best then best := !i;
    incr i
  done;
  if !i < stop then !i else !best

(* Fault injection: corrupt the data image of up to [max] valid lines
   in this node, as if a Grant delivered bit-flipped payload.  Uses
   the same poisoned-line machinery as the §IV-C bug: reads consult
   the poison image, a write to the line heals it.  Returns the number
   of lines corrupted. *)
let corrupt_lines (t : t) ~max : int =
  let n = ref 0 in
  for slot = 0 to (t.sets * t.ways) - 1 do
    let tag = Cow.get t.tags slot in
    let la = Int64.of_int tag in
    if !n < max && tag >= 0 && Cow.get t.perms slot <> nothing
       && not (Hashtbl.mem t.poisoned la)
    then begin
      let buf = Bytes.create (line_bytes t) in
      let base = base_of_la t la in
      for i = 0 to line_bytes t - 1 do
        Bytes.set buf i
          (Char.chr
             (Riscv.Memory.read_u8 t.backing (Int64.add base (Int64.of_int i))
             lxor 0xA5))
      done;
      Hashtbl.replace t.poisoned la buf;
      incr n
    end
  done;
  !n

(* Downgrade [t]'s copy (and its whole subtree) to [to_perm].
   Returns the latency of the probe. *)
let rec probe (t : t) ~la ~(to_perm : Perm.t) : int =
  t.s_probes <- t.s_probes + 1;
  emit t (Perm.Probe to_perm) ~child:(-1) ~la;
  let line = lookup t la in
  if line < 0 then begin
    emit t (Perm.Probe_ack to_perm) ~child:(-1) ~la;
    1
  end
  else begin
    (* forward to children first (inclusive hierarchy) *)
    let child_lat = ref 0 in
    Array.iteri
      (fun i c ->
        if Cow.get t.sharers line land (1 lsl i) <> 0 then
          child_lat := max !child_lat (probe c ~la ~to_perm))
      t.children;
    (* the injected L2 MSHR arbitration bug: a Probe overlapping an
       in-flight Acquire on the same block captures the pre-write
       data image, which later Grants serve upward *)
    if t.bug_probe_race && Cow.get t.inflight_until line > t.now then begin
      let buf = Bytes.create (line_bytes t) in
      let base = base_of_la t la in
      for i = 0 to line_bytes t - 1 do
        Bytes.set buf i
          (Char.chr
             (Riscv.Memory.read_u8 t.backing (Int64.add base (Int64.of_int i))))
      done;
      Hashtbl.replace t.poisoned la buf
    end;
    (match to_perm with
    | Perm.Nothing ->
        Cow.set t.tags line (-1);
        Cow.set t.perms line nothing;
        Cow.set t.sharers line 0;
        Cow.set t.owners line (-1)
    | Perm.Branch ->
        if Cow.get t.perms line > branch then Cow.set t.perms line branch;
        Cow.set t.owners line (-1)
    | Perm.Trunk -> invalid_arg "probe to Trunk");
    emit t (Perm.Probe_ack to_perm) ~child:(-1) ~la;
    !child_lat + 1
  end

(* Notify the parent that [t] no longer holds [la] (eviction). *)
let release_to_parent (t : t) ~la =
  emit t Perm.Release ~child:(-1) ~la;
  match t.parent with
  | Dram _ -> ()
  | Cache p ->
      let pl = lookup p la in
      if pl >= 0 then begin
        Cow.set p.sharers pl
          (Cow.get p.sharers pl land lnot (1 lsl t.child_id));
        if Cow.get p.owners pl = t.child_id then Cow.set p.owners pl (-1)
      end

(* One more outstanding fill, completing at [until]: misses landing
   inside a window where fills are still in flight model MSHR
   occupancy; exceeding [mshr_cap] concurrent fills is a saturation
   event (the D$ would have stalled the pipeline). *)
let note_fill (t : t) ~until =
  if t.mshr_cap > 0 then begin
    if t.now < t.fill_win_until then begin
      t.fill_win_count <- t.fill_win_count + 1;
      if t.fill_win_count > t.mshr_cap then t.s_mshr_sat <- t.s_mshr_sat + 1
    end
    else t.fill_win_count <- 1;
    if until > t.fill_win_until then t.fill_win_until <- until
  end

(* Make this node itself hold [la] with at least [want].
   Returns latency. *)
let rec ensure (t : t) ~la ~(want : Perm.t) : int =
  t.s_accesses <- t.s_accesses + 1;
  let line = lookup t la in
  if line >= 0 && Cow.get t.perms line >= Perm.rank want then begin
    Cow.set t.last_use line t.now;
    t.hit_latency
  end
  else if line >= 0 then begin
    (* permission upgrade: a miss, but no line install (refill) *)
    t.s_misses <- t.s_misses + 1;
    let pl = acquire_from_parent t ~la ~want in
    let until = t.now + t.hit_latency + pl in
    Cow.set t.perms line (Perm.rank want);
    Cow.set t.last_use line t.now;
    Cow.set t.inflight_until line until;
    note_fill t ~until;
    t.hit_latency + pl
  end
  else begin
    t.s_misses <- t.s_misses + 1;
    t.s_refills <- t.s_refills + 1;
    let v = victim t la in
    if Cow.get t.perms v <> nothing then begin
      t.s_evictions <- t.s_evictions + 1;
      let old = Int64.of_int (Cow.get t.tags v) in
      (* inclusive eviction: purge the subtree, tell the parent *)
      Array.iteri
        (fun i c ->
          if Cow.get t.sharers v land (1 lsl i) <> 0 then
            ignore (probe c ~la:old ~to_perm:Perm.Nothing))
        t.children;
      release_to_parent t ~la:old
    end;
    let pl = acquire_from_parent t ~la ~want in
    let until = t.now + t.hit_latency + pl in
    Cow.set t.tags v (Int64.to_int la);
    Cow.set t.perms v (Perm.rank want);
    Cow.set t.sharers v 0;
    Cow.set t.owners v (-1);
    Cow.set t.last_use v t.now;
    Cow.set t.inflight_until v until;
    note_fill t ~until;
    t.hit_latency + pl
  end

and acquire_from_parent (t : t) ~la ~want : int =
  emit t (Perm.Acquire want) ~child:(-1) ~la;
  match t.parent with
  | Dram d -> Dram.access d ~now:t.now ~addr:(base_of_la t la)
  | Cache p -> acquire p ~la ~want ~child:t.child_id

(* A child requests [want] on [la] from [p]. Returns latency. *)
and acquire (p : t) ~la ~want ~child : int =
  let self_lat = ensure p ~la ~want in
  let probe_lat = ref 0 in
  let line = lookup p la in
  assert (line >= 0) (* ensure just installed it *);
  (match want with
  | Perm.Trunk ->
      if not p.bug_skip_probe then
        Array.iteri
          (fun i c ->
            if i <> child && Cow.get p.sharers line land (1 lsl i) <> 0
            then begin
              probe_lat := max !probe_lat (probe c ~la ~to_perm:Perm.Nothing);
              Cow.set p.sharers line
                (Cow.get p.sharers line land lnot (1 lsl i))
            end)
          p.children;
      Cow.set p.owners line child
  | Perm.Branch ->
      let owner = Cow.get p.owners line in
      if owner >= 0 && owner <> child then begin
        probe_lat :=
          max !probe_lat (probe p.children.(owner) ~la ~to_perm:Perm.Branch);
        Cow.set p.owners line (-1)
      end
  | Perm.Nothing -> ());
  Cow.set p.sharers line (Cow.get p.sharers line lor (1 lsl child));
  emit p (Perm.Grant want) ~child ~la;
  (* the buggy grant path: serve poisoned data to the child *)
  (if Hashtbl.mem p.poisoned la then
     match Hashtbl.find_opt p.poisoned la with
     | Some buf ->
         Hashtbl.replace p.children.(child).poisoned la (Bytes.copy buf)
     | None -> ());
  self_lat + !probe_lat

(* ---- core-facing interface (called on an L1 node) ------------------- *)

let poisoned_value t ~la ~addr ~size : int64 option =
  match Hashtbl.find_opt t.poisoned la with
  | None -> None
  | Some buf ->
      let off = Int64.to_int (Int64.sub addr (base_of_la t la)) in
      if off + size > Bytes.length buf then None
      else begin
        let v = ref 0L in
        for i = size - 1 downto 0 do
          v :=
            Int64.logor
              (Int64.shift_left !v 8)
              (Int64.of_int (Char.code (Bytes.get buf (off + i))))
        done;
        Some !v
      end

(* Read [size] bytes; returns (value, latency). *)
let read (t : t) ~addr ~size : int64 * int =
  let la = line_addr t addr in
  let lat = ensure t ~la ~want:Perm.Branch in
  let v =
    match poisoned_value t ~la ~addr ~size with
    | Some v -> v
    | None -> Riscv.Memory.read_bytes_le t.backing addr size
  in
  (v, lat)

(* Write [size] bytes; returns latency.  Write-through to backing. *)
let write (t : t) ~addr ~size v : int =
  let la = line_addr t addr in
  let lat = ensure t ~la ~want:Perm.Trunk in
  Hashtbl.remove t.poisoned la;
  Riscv.Memory.write_bytes_le t.backing addr size v;
  lat

(* Read-only probe of latency without a data value (instruction fetch). *)
let fetch (t : t) ~addr : int =
  let la = line_addr t addr in
  ensure t ~la ~want:Perm.Branch

(* Tags, perms, sharers and owners go back to their initial values;
   LRU and fill timing are kept. *)
let invalidate_all (t : t) =
  iter_tree t (fun n ->
      Cow.clear n.tags;
      Cow.clear n.perms;
      Cow.clear n.sharers;
      Cow.clear n.owners;
      Hashtbl.reset n.poisoned)

let tables (t : t) =
  let acc = ref [] in
  iter_tree t (fun n ->
      acc :=
        n.inflight_until :: n.last_use :: n.owners :: n.sharers :: n.perms
        :: n.tags :: !acc);
  List.rev !acc

let tick (t : t) = t.now <- t.now + 1

let set_now (t : t) n = t.now <- n

type stats = {
  accesses : int;
  misses : int;
  refills : int; (* line installs; a permission-upgrade miss is not a refill *)
  probes : int;
  evictions : int;
  mshr_saturated : int;
}

let stats t =
  {
    accesses = t.s_accesses;
    misses = t.s_misses;
    refills = t.s_refills;
    probes = t.s_probes;
    evictions = t.s_evictions;
    mshr_saturated = t.s_mshr_sat;
  }

let set_mshrs t n = t.mshr_cap <- max 0 n
