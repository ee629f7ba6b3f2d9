(* LightSSS: lightweight simulation snapshots (paper §III-C).

   The paper's implementation forks the RTL-simulation process and
   lets the kernel's copy-on-write give an in-memory, incremental,
   circuit-agnostic snapshot.  The OCaml analogue implemented here:

   - the big state -- every simulated physical memory and every
     micro-architectural table (cache metadata, predictors, TLBs) --
     lives in Riscv.Cow's paged COW stores: a snapshot copies only
     each store's directory of written pages, exactly like fork
     duplicating page tables, and later writes pay lazy per-page
     copies (the COW faults measured in Figure 6);
   - the remaining simulator state (pipeline structures, small
     records, reference models) is captured with Marshal including
     closures -- the analogue of the fork'd process image -- after
     detaching the stores' pages, so the image stays O(small
     metadata), neither O(memory) nor O(table size).

   The manager keeps only the two most recent snapshots (paper
   §III-C3): when the verification layer reports an error, the older
   one is restored and the last <= 2N cycles are replayed in debug
   mode.

   The SSS and LiveSim baselines of Table I are provided for
   comparison: both copy the full image (memory and tables included);
   SSS additionally round-trips it through a file. *)

type snapshot = {
  snap_cycle : int;
  store_snaps : Riscv.Cow.snapshot list; (* memories, then tables *)
  image : bytes; (* marshalled simulator graph, stores detached *)
  image_bytes : int;
}

(* A subject couples the COW stores -- the memories, then the tables
   -- with the root of the mutable object graph to capture.
   [detach_heavy]/[reattach_heavy] bracket the marshalling step: state
   that is shared with the replayed instance rather than copied (the
   analogue of fork-shared pages, e.g. DiffTest's Global Memory) or
   derived and rebuilt lazily (the NEMU REF's block cache) is unhooked
   there so the image stays O(simulator metadata). *)
type 'a subject = {
  memories : Riscv.Memory.t list;
  tables : Riscv.Cow.t list;
  roots : 'a;
  detach_heavy : unit -> unit;
  reattach_heavy : unit -> unit;
}

let plain_subject ~memories ?(tables = []) ~roots () =
  {
    memories;
    tables;
    roots;
    detach_heavy = (fun () -> ());
    reattach_heavy = (fun () -> ());
  }

let stores ~memories ~tables = List.map Riscv.Memory.store memories @ tables

(* Take a lightweight snapshot at [cycle].  The store snapshots are
   taken only once the image exists: nothing runs in between, so the
   result is the same, and a Marshal failure (a root reaching a
   channel, say) leaves no page refcount bumped -- otherwise every
   later write to those pages would pay a spurious COW copy.  The
   memories' last-page caches are dropped first, so they neither
   smuggle page bytes into the image nor keep writing to a page the
   snapshot now shares. *)
let snapshot (s : 'a subject) ~cycle : snapshot =
  List.iter Riscv.Memory.invalidate_caches s.memories;
  let stores = stores ~memories:s.memories ~tables:s.tables in
  let saved = List.map Riscv.Cow.detach stores in
  s.detach_heavy ();
  let image =
    Fun.protect
      ~finally:(fun () ->
        s.reattach_heavy ();
        List.iter2 Riscv.Cow.reattach stores saved)
      (fun () -> Marshal.to_bytes s.roots [ Marshal.Closures ])
  in
  let store_snaps = List.map Riscv.Cow.snapshot stores in
  { snap_cycle = cycle; store_snaps; image; image_bytes = Bytes.length image }

(* Object count from the Marshal header: a 32-bit field at offset 8
   of the small (20-byte) header, a 64-bit one at offset 16 of the big
   (32-byte) header, both big-endian.  Marshal pays per object, so
   this is the deterministic proxy for snapshot cost. *)
let image_objects (snap : snapshot) : int =
  match Bytes.get_int32_be snap.image 0 with
  | 0x8495A6BEl ->
      Int32.to_int (Bytes.get_int32_be snap.image 8) land 0xFFFF_FFFF
  | 0x8495A6BFl -> Int64.to_int (Bytes.get_int64_be snap.image 16)
  | m -> invalid_arg (Printf.sprintf "Lightsss.image_objects: magic 0x%lx" m)

(* Unmarshal a fresh graph and re-link its stores, by position, to
   the snapshot's pages. *)
let restore_with (snap : snapshot) ~(memories_of : 'a -> Riscv.Memory.t list)
    ~(tables_of : 'a -> Riscv.Cow.t list) : 'a =
  let roots : 'a = Marshal.from_bytes snap.image 0 in
  let memories = memories_of roots in
  List.iter Riscv.Memory.invalidate_caches memories;
  List.iter2 Riscv.Cow.restore
    (stores ~memories ~tables:(tables_of roots))
    snap.store_snaps;
  roots

let release (snap : snapshot) = List.iter Riscv.Cow.release snap.store_snaps

(* ---- the two-slot snapshot manager ---------------------------------- *)

type 'a manager = {
  subject : 'a subject;
  interval : int; (* cycles between snapshots *)
  mutable slots : snapshot list; (* at most 2, newest first *)
  mutable last_snap_cycle : int;
  mutable snapshots_taken : int;
  mutable total_snapshot_seconds : float;
}

let manager ~interval subject =
  {
    subject;
    interval;
    slots = [];
    last_snap_cycle = -(2 * interval);
    snapshots_taken = 0;
    total_snapshot_seconds = 0.0;
  }

(* Called every cycle; takes a snapshot when the interval elapses,
   keeping only the most recent two. *)
let tick (m : 'a manager) ~cycle =
  if cycle - m.last_snap_cycle >= m.interval then begin
    let t0 = Unix.gettimeofday () in
    let s = snapshot m.subject ~cycle in
    m.total_snapshot_seconds <-
      m.total_snapshot_seconds +. (Unix.gettimeofday () -. t0);
    m.snapshots_taken <- m.snapshots_taken + 1;
    m.last_snap_cycle <- cycle;
    (match m.slots with
    | a :: b :: _ ->
        release b;
        m.slots <- [ s; a ]
    | rest -> m.slots <- s :: rest)
  end

(* The snapshot to replay from on an error: the *older* of the two
   retained (so the region of interest, <= 2 intervals, is covered). *)
let replay_point (m : 'a manager) : snapshot option =
  match m.slots with [ _; b ] -> Some b | [ a ] -> Some a | _ -> None

(* ---- SSS / LiveSim baselines (Table I) ------------------------------- *)

(* Full-image snapshot: marshals everything *including* the memory
   and table pages -- O(simulated memory).  [to_file] additionally round-trips
   through the filesystem, like the Verilator save/restore flow. *)
let full_image_snapshot ?(to_file = false) (s : 'a subject) : int =
  let image = Marshal.to_bytes s.roots [ Marshal.Closures ] in
  if to_file then begin
    let f = Filename.temp_file "sss" ".img" in
    let oc = open_out_bin f in
    output_bytes oc image;
    close_out oc;
    Sys.remove f
  end;
  Bytes.length image

type scheme = {
  scheme_name : string;
  in_memory : bool;
  incremental : bool;
  circuit_agnostic : bool;
}

(* Table I. *)
let schemes =
  [
    {
      scheme_name = "CRIU-like";
      in_memory = false;
      incremental = true;
      circuit_agnostic = true;
    };
    {
      scheme_name = "Verilator save/restore (SSS)";
      in_memory = false;
      incremental = false;
      circuit_agnostic = false;
    };
    {
      scheme_name = "LiveSim-like";
      in_memory = true;
      incremental = false;
      circuit_agnostic = false;
    };
    {
      scheme_name = "LightSSS";
      in_memory = true;
      incremental = true;
      circuit_agnostic = true;
    };
  ]
