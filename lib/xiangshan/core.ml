(* The XiangShan-like superscalar out-of-order core (Figure 10).

   Pipeline model: decoupled fetch with BPU-directed bundles, decode
   with optional macro-op fusion, rename with move elimination,
   dispatch into distributed issue queues, execute-at-issue with
   per-class latencies, a load/store unit with store queue + store
   buffer, and in-order commit that maintains the architectural state
   observed by DiffTest.  System instructions, atomics and MMIO
   accesses execute at the ROB head.

   Cycle semantics are two-phase (DESIGN.md "Two-phase cycle
   semantics"): phase 1 ([step]) lets every unit -- commit, issue,
   store-buffer drain, dispatch, fetch -- compute its plan for the
   cycle from the read-only start-of-cycle state into its own
   preallocated plan buffer; phase 2 ([apply]) commits all effects in one
   canonical order with explicit arbitration for the structural
   hazards (snapshot-claimed ROB/IQ/LSU slots, redirect-vs-commit
   priority, fault hooks firing at the effect boundary).  Phase-1
   purity is not enforced by the type system (OCaml has no const);
   it is enforced by the seeded permutation harness: stepping the
   units in any order must produce byte-identical behaviour
   (a [Shuffle] phase order, test/test_twophase.ml).

   Fidelity notes (see DESIGN.md): results are computed when an
   instruction issues, using values in the physical register file, and
   timing is tracked via ready/done cycles; loads never speculate past
   unresolved older store addresses, so memory-order replays are not
   modelled. *)

open Riscv

(* ================= the fetch ring ==================================== *)

(* One ring of [fetch_buffer] fetch slots per core: the fetch queue,
   [fq_len] slots from [fr_head] in fetch order, followed by the
   in-flight bundle's [fb_n] slots.  A completing bundle joins the
   queue where it lies, and dispatch pops the queue's head.  Fetch
   never starts a bundle without headroom for a whole one, so the
   ring cannot overflow.

   Slots are laid out row-major, as the ROB's uop rows are: a slot's
   ints sit adjacent in [fr_ints] at the [f_*] offsets, its 64-bit
   fields unboxed in [fr_words] at the [w_*] offsets, and its static
   record in [fr_si].  The word after the last slot holds the fetch
   pc.  So fetch allocates nothing per instruction or bundle.

   Every fetched item takes the next fetch sequence number.  A flush
   empties the ring but never reuses a number, so a dispatch plan that
   names its item's number can tell whether the item is still the
   queue's head. *)
type fetch_ring = {
  fr_cap : int;
  fr_ints : int array;
  fr_words : Bytes.t;
  fr_si : Predecode.t array; (* [Predecode.none] in a free slot *)
  mutable fr_head : int;
  mutable fq_len : int;
  mutable fb_n : int;
  mutable fb_ready_at : int;
      (* cycle the in-flight bundle reaches the queue; [no_bundle] =
         none in flight *)
  mutable fr_next_seq : int;
}

let f_fetched_at = 0 (* cycle the item entered the fetch queue *)

let f_fault = 1 (* the fetch fault's mcause code, or [no_fault] *)

let f_seq = 2 (* the fetch sequence number *)

let ints_per_slot = 3

(* A fetch fault's tval is its pc, so a slot needs no word for it. *)
let w_pc = 0

let w_pred_next = 1 (* the predicted next pc *)

let words_per_slot = 2

let no_fault = -1

let no_bundle = -1

let make_ring cap =
  {
    fr_cap = cap;
    fr_ints = Array.make (ints_per_slot * cap) 0;
    fr_words = Bytes.make (8 * ((words_per_slot * cap) + 1)) '\000';
    fr_si = Array.make cap Predecode.none;
    fr_head = 0;
    fq_len = 0;
    fb_n = 0;
    fb_ready_at = no_bundle;
    fr_next_seq = 0;
  }

(* The slot [i] places after the queue's head. *)
let[@inline] fr_slot q i =
  let s = q.fr_head + i in
  if s >= q.fr_cap then s - q.fr_cap else s

let[@inline] fr_get q s f = q.fr_ints.((s * ints_per_slot) + f)

let[@inline] fr_set q s f v = q.fr_ints.((s * ints_per_slot) + f) <- v

let[@inline] fr_get64 q s f =
  Bytes.get_int64_ne q.fr_words (((s * words_per_slot) + f) lsl 3)

let[@inline] fr_set64 q s f v =
  Bytes.set_int64_ne q.fr_words (((s * words_per_slot) + f) lsl 3) v

let[@inline] fetch_pc q =
  Bytes.get_int64_ne q.fr_words (q.fr_cap * words_per_slot lsl 3)

let[@inline] set_fetch_pc q pc =
  Bytes.set_int64_ne q.fr_words (q.fr_cap * words_per_slot lsl 3) pc

(* Drop the queue's head item. *)
let fq_pop q =
  q.fr_si.(q.fr_head) <- Predecode.none;
  q.fr_head <- fr_slot q 1;
  q.fq_len <- q.fq_len - 1

(* Empty the queue and the in-flight bundle; numbering goes on. *)
let fr_clear q =
  for i = 0 to q.fq_len + q.fb_n - 1 do
    q.fr_si.(fr_slot q i) <- Predecode.none
  done;
  q.fr_head <- 0;
  q.fq_len <- 0;
  q.fb_n <- 0;
  q.fb_ready_at <- no_bundle

(* ================= plan buffers (phase-1 output) ===================== *)

(* Each unit's phase-1 planner reads only start-of-cycle state and
   writes its plan into its own buffer of the core's preallocated
   [effects]; phase 2 applies them in the canonical order (commit,
   issue, drain, dispatch, fetch) and resets the buffers that hold
   uops.  The buffers hold plans, not state deltas: application still
   performs the mutation through the same unit code paths, after
   revalidating any claim a flush or a boundary fault hook may have
   invalidated.  Issue selections live in each [Iq]'s own plan
   buffer. *)

type commit_eff = {
  mutable ce_mtip : bool; (* CLINT timer-interrupt line, sampled *)
  mutable ce_msip : bool; (* CLINT software-interrupt line, sampled *)
}

type issue_eff = {
  mutable ie_ready_total : int; (* Figure 15: ready instructions before selection *)
}

type drain_eff = {
  mutable de_fire : bool; (* store buffer eligible to drain one entry *)
}

type stall_kind =
  | Rob_full
  | Iq_full
  | Lq_full
  | Sq_full
  | Freelist_int
  | Freelist_fp

type disp_plan = {
  mutable pl_seq : int;
      (* an accepted slot's uop, whose ROB row the planner initialised;
         its sources hold architectural numbers until apply renames
         them.  -1 = none *)
  mutable pl_fseq : int;
      (* the fetch sequence number of the head fetch-queue item consumed *)
  mutable pl_fused : bool; (* the next item is consumed too *)
  mutable pl_iq : int; (* target IQ index, -1 = none (at-commit / fault) *)
  mutable pl_eliminated : bool; (* move elimination: alias, no alloc, no issue *)
}

type dispatch_eff = {
  dp_plans : disp_plan array; (* decode_width slots, [0, dp_n) in program order *)
  mutable dp_n : int;
  mutable dp_stall : stall_kind option; (* first scarce resource, if any *)
  dp_iq_occ : int array; (* planner scratch: IQ occupancy, snapshot + claimed *)
}

type fetch_eff = {
  mutable fe_complete : bool; (* the in-flight bundle reaches the fetch queue *)
  mutable fe_start : bool; (* a new bundle may start (headroom from snapshot) *)
}

type effects = {
  ef_commit : commit_eff;
  ef_issue : issue_eff;
  ef_drain : drain_eff;
  ef_dispatch : dispatch_eff;
  ef_fetch : fetch_eff;
}

let make_effects (cfg : Config.t) =
  {
    ef_commit = { ce_mtip = false; ce_msip = false };
    ef_issue = { ie_ready_total = 0 };
    ef_drain = { de_fire = false };
    ef_dispatch =
      {
        dp_plans =
          Array.init cfg.decode_width (fun _ ->
              {
                pl_seq = -1;
                pl_fseq = -1;
                pl_fused = false;
                pl_iq = -1;
                pl_eliminated = false;
              });
        dp_n = 0;
        dp_stall = None;
        dp_iq_occ = Array.make (List.length cfg.iqs) 0;
      };
    ef_fetch = { fe_complete = false; fe_start = false };
  }

type perf = {
  mutable p_cycles : int;
  mutable p_instrs : int; (* architectural instructions committed *)
  mutable p_uops : int;
  mutable p_fused : int;
  mutable p_moves_eliminated : int;
  mutable p_loads : int;
  mutable p_stores : int;
  mutable p_traps : int;
  mutable p_interrupts : int;
  mutable p_flushes : int;
  ready_hist : int array; (* Figure 15: cycles with N ready insns *)
  mutable p_dispatched : int;
  mutable p_hi_prio : int; (* PUBS high-priority uops dispatched *)
  p_td : int array; (* cycles per top-down bucket, by Perf.Topdown.index *)
  (* dispatch stalls, charged to the first scarce resource *)
  mutable p_stall_rob_full : int;
  mutable p_stall_iq_full : int;
  mutable p_stall_lq_full : int;
  mutable p_stall_sq_full : int;
  mutable p_stall_freelist_int : int;
  mutable p_stall_freelist_fp : int;
  mutable p_stall_sb_full : int; (* commit blocked on a full store buffer *)
  mutable p_fetch_bubbles : int;
  mutable p_icache_misses : int;
  mutable p_walked_uops : int;
  p_commit_width : int array; (* cycles committing 0..8+ uops *)
  (* edge-style coverage probes (fed to the fuzzer's coverage map) *)
  p_walk_depth : int array; (* per-flush ROB walk depth, log2 buckets *)
  mutable p_flush_misp : int;
  mutable p_flush_trap : int;
  mutable p_flush_serial : int;
  mutable p_sc_success : int;
  mutable p_sc_failures : int;
  mutable p_tlb_walk_flush : int;
}

let make_perf () =
  {
    p_cycles = 0;
    p_instrs = 0;
    p_uops = 0;
    p_fused = 0;
    p_moves_eliminated = 0;
    p_loads = 0;
    p_stores = 0;
    p_traps = 0;
    p_interrupts = 0;
    p_flushes = 0;
    ready_hist = Array.make 17 0;
    p_dispatched = 0;
    p_hi_prio = 0;
    p_td = Array.make Perf.Topdown.n_buckets 0;
    p_stall_rob_full = 0;
    p_stall_iq_full = 0;
    p_stall_lq_full = 0;
    p_stall_sq_full = 0;
    p_stall_freelist_int = 0;
    p_stall_freelist_fp = 0;
    p_stall_sb_full = 0;
    p_fetch_bubbles = 0;
    p_icache_misses = 0;
    p_walked_uops = 0;
    p_commit_width = Array.make 9 0;
    p_walk_depth = Array.make 5 0;
    p_flush_misp = 0;
    p_flush_trap = 0;
    p_flush_serial = 0;
    p_sc_success = 0;
    p_sc_failures = 0;
    p_tlb_walk_flush = 0;
  }

(* Phase-1 evaluation order.  [Default_order] runs the unit planners
   in a fixed order; [Shuffle seed] runs them in a fresh seeded
   permutation every cycle.  Both must be indistinguishable -- the
   permutation mode exists purely to enforce that property. *)
type phase_order = Default_order | Shuffle of int

type t = {
  cfg : Config.t;
  hartid : int;
  arch : Arch_state.t; (* committed architectural state *)
  plat : Platform.t; (* SoC-shared *)
  bpu : Bpu.t;
  tlb : Tlb.t;
  l1i : Softmem.Cache.t;
  l1d : Softmem.Cache.t;
  rename : Rename.t;
  rob : Rob.t;
  iqs : Iq.t array;
  iq_route : int array array;
      (* exec class (class_index) -> indices of the IQs accepting it *)
  lsu : Lsu.t;
  probes : Probe.sinks;
  slots : Probe.commit array;
      (* one commit probe per commit slot, refilled every cycle *)
  mutable n_slots : int; (* slots.(0 .. n_slots-1) hold this cycle's commits *)
  perf : perf;
  def_table : int array; (* arch int reg -> seq of last producer *)
  mutable now : int;
  mutable seq : int; (* next uop sequence number *)
  ring : fetch_ring;
      (* the fetch queue, the in-flight bundle and the fetch pc *)
  mutable fetch_stalled : bool;
  plan : effects; (* this core's phase-1 buffers, reused every cycle *)
  mutable commit_busy_until : int; (* at-commit execution occupancy *)
  (* top-down attribution state: a flush opens a bad-speculation
     recovery window; an L1I miss opens a frontend-icache window *)
  mutable recover_until : int;
  mutable recover_misp : bool; (* window opened by a mispredict redirect? *)
  mutable icache_stall_until : int;
  (* opt-in pipeline tracer; [None] keeps the hot paths allocation-free *)
  mutable tracer : Perf.Pipetrace.t option;
  mutable halted : bool;
  (* hook used by the SoC to invalidate sibling reservations *)
  mutable on_store_drain : int64 -> int -> unit;
  on_drain : int64 -> int -> unit;
      (* [drain_notify] of this core, built once: passing it to the
         store buffer allocates no closure *)
  (* fault injection: for the next N resolved mispredictions, trust
     the predictor instead of redirecting (wrong-path commits) *)
  mutable bug_trust_bpu : int;
  (* two-phase machinery: the cycle of the most recent flush (apply
     cancels younger plans when it equals [now]), and the phase-1
     evaluation order *)
  mutable flushed_at : int;
  mutable phase_order : phase_order;
  (* PTW walks observed up to the end of the previous cycle; [apply]
     charges the delta to tlb.walk_during_flush while inside a
     flush-recovery window *)
  mutable tlb_walk_seen : int;
}

(* Dispatch routes by exec class through a table built once per core:
   for each class, the accepting IQs in configuration order. *)
let class_index : Config.exec_class -> int = function
  | ALU -> 0
  | MUL -> 1
  | DIV -> 2
  | JUMP_CSR -> 3
  | LOAD -> 4
  | STORE -> 5
  | FMAC -> 6
  | FMISC -> 7

let iq_route (cfg : Config.t) =
  let iqs = Array.of_list cfg.iqs in
  Array.map
    (fun cls ->
      let accepting = ref [] in
      for i = Array.length iqs - 1 downto 0 do
        if List.mem cls iqs.(i).Config.iq_classes then
          accepting := i :: !accepting
      done;
      Array.of_list !accepting)
    [| Config.ALU; MUL; DIV; JUMP_CSR; LOAD; STORE; FMAC; FMISC |]

(* Every store that enters the cache hierarchy must be announced: the
   Global Memory diff-rule and sibling LR reservations depend on it.
   The value is read back from the (write-through) backing memory. *)
let drain_notify t pa size =
  t.probes.Probe.on_drain
    {
      Probe.d_hartid = t.hartid;
      d_cycle = t.now;
      d_paddr = pa;
      d_size = size;
      d_value = Riscv.Memory.read_bytes_le t.plat.Platform.mem pa size;
    };
  t.on_store_drain pa size

let create ?(phase_order = Default_order) (cfg : Config.t) ~hartid
    ~(plat : Platform.t)
    ~(l1i : Softmem.Cache.t) ~(l1d : Softmem.Cache.t)
    ~(ptw_port : Softmem.Cache.t) : t =
  let arch = Arch_state.create ~hartid () in
  arch.Arch_state.csr.Csr.time_source <-
    (fun () -> Platform.Clint.mtime plat.Platform.clint);
  let rob = Rob.create ~size:cfg.rob_size in
  let uops = rob.Rob.uops in
  let rec t =
    {
      cfg;
      hartid;
      arch;
      plat;
      bpu = Bpu.create cfg;
      tlb = Tlb.create cfg ~ptw_port;
      l1i;
      l1d;
      rename = Rename.create cfg;
      rob;
      iqs =
        Array.of_list
          (List.map
             (fun iqc -> Iq.create iqc ~policy:cfg.issue_policy ~uops)
             cfg.iqs);
      iq_route = iq_route cfg;
      lsu = Lsu.create cfg ~dcache:l1d ~uops;
      probes = Probe.null_sinks ();
      slots = Array.init cfg.decode_width (fun _ -> Probe.make_slot ~hartid);
      n_slots = 0;
      perf = make_perf ();
      def_table = Array.make 32 (-1);
      now = 0;
      seq = 0;
      ring = make_ring cfg.fetch_buffer;
      fetch_stalled = false;
      plan = make_effects cfg;
      commit_busy_until = 0;
      recover_until = 0;
      recover_misp = false;
      icache_stall_until = 0;
      tracer = None;
      halted = false;
      on_store_drain = (fun _ _ -> ());
      on_drain = (fun pa size -> drain_notify t pa size);
      bug_trust_bpu = 0;
      flushed_at = -1;
      tlb_walk_seen = 0;
      phase_order;
    }
  in
  t

let set_phase_order t o = t.phase_order <- o

let set_boot_pc t pc =
  set_fetch_pc t.ring pc;
  Arch_state.set_pc t.arch pc

(* Copy the committed architectural register values into the currently
   mapped physical registers (used after restoring a checkpoint). *)
let sync_regfile_from_arch t =
  for r = 0 to 31 do
    let prd = Rename.lookup t.rename ~is_fp:false r in
    Rename.set_result t.rename ~is_fp:false ~prd
      ~value:(Arch_state.get_reg t.arch r) ~ready_at:0;
    let pfd = Rename.lookup t.rename ~is_fp:true r in
    Rename.set_result t.rename ~is_fp:true ~prd:pfd
      ~value:(Arch_state.get_freg t.arch r) ~ready_at:0
  done

(* ---------------- flush / redirect ---------------------------------- *)

(* Mispredict penalty beyond frontend refill: resolve + recovery. *)
let mispredict_penalty = 6

(* Squash all uops younger than [after] (-1 = everything) and restart
   fetch at [target].  Records the flush cycle: plans computed in
   phase 1 of the same cycle are invalidated by it (apply skips
   dispatch outright and re-evaluates fetch live). *)
let flush ?(cause = `Other) t ~after ~target =
  t.perf.p_flushes <- t.perf.p_flushes + 1;
  t.flushed_at <- t.now;
  (match cause with
  | `Misp -> t.perf.p_flush_misp <- t.perf.p_flush_misp + 1
  | `Trap -> t.perf.p_flush_trap <- t.perf.p_flush_trap + 1
  | `Serial -> t.perf.p_flush_serial <- t.perf.p_flush_serial + 1
  | `Other -> ());
  let old_tail = Rob.squash_younger t.rob ~after in
  let new_tail = t.rob.Rob.tail in
  let depth = old_tail - new_tail in
  t.perf.p_walked_uops <- t.perf.p_walked_uops + depth;
  if depth > 0 then begin
    (* log2 depth buckets: 1, 2-3, 4-7, 8-15, 16+ *)
    let b =
      if depth >= 16 then 4
      else if depth >= 8 then 3
      else if depth >= 4 then 2
      else if depth >= 2 then 1
      else 0
    in
    t.perf.p_walk_depth.(b) <- t.perf.p_walk_depth.(b) + 1
  end;
  (* youngest first, for the trace and for rename rollback *)
  (match t.tracer with
  | Some tr ->
      for seq = old_tail - 1 downto new_tail do
        Perf.Pipetrace.on_flush tr ~seq ~now:t.now
      done
  | None -> ());
  let uops = t.rob.Rob.uops in
  for seq = old_tail - 1 downto new_tail do
    let r = Uop.row uops seq in
    Rename.rollback t.rename uops r;
    Uop.release uops r
  done;
  t.seq <- new_tail;
  Array.iter Iq.drop_squashed t.iqs;
  Lsu.drop_squashed t.lsu;
  fr_clear t.ring;
  t.fetch_stalled <- false;
  set_fetch_pc t.ring target;
  (* open a bad-speculation recovery window for top-down attribution;
     a mispredict redirect overrides [recover_misp] at its call site *)
  t.recover_until <- max t.recover_until (t.now + mispredict_penalty);
  t.recover_misp <- false

(* ---------------- fetch ---------------------------------------------- *)

let fetch_block_bytes = 32

let[@inline] fetch_block pc =
  Int64.to_int (Int64.div pc (Int64.of_int fetch_block_bytes))

(* Move a completed bundle's slots into the fetch queue. *)
let fetch_complete_now t =
  let q = t.ring in
  if q.fb_ready_at <> no_bundle && t.now >= q.fb_ready_at then begin
    for i = q.fq_len to q.fq_len + q.fb_n - 1 do
      fr_set q (fr_slot q i) f_fetched_at t.now
    done;
    q.fq_len <- q.fq_len + q.fb_n;
    q.fb_n <- 0;
    q.fb_ready_at <- no_bundle
  end

(* Append the item fetched at [pc] to the in-flight bundle; returns
   its slot. *)
let[@inline] push_slot q ~pc si =
  let s = fr_slot q (q.fq_len + q.fb_n) in
  q.fb_n <- q.fb_n + 1;
  fr_set q s f_fault no_fault;
  fr_set q s f_seq q.fr_next_seq;
  q.fr_next_seq <- q.fr_next_seq + 1;
  fr_set64 q s w_pc pc;
  q.fr_si.(s) <- si;
  s

(* A bundle of the one item at the fetch pc, which raises [exc] at
   commit, ready at [ready_at]; fetch stalls until a redirect. *)
let fetch_fault t ~ready_at exc =
  let q = t.ring in
  let pc = fetch_pc q in
  let s = push_slot q ~pc Predecode.none in
  fr_set q s f_fault (Trap.exc_code exc);
  fr_set64 q s w_pred_next (Int64.add pc 4L);
  q.fb_ready_at <- ready_at;
  t.fetch_stalled <- true

(* The items of a bundle at the fetch pc, in fetch order: up to
   [fetch_width] sequential slots in its fetch block, ending after a
   predicted-taken one.  [page] holds the block's instruction words
   from [off] on: a fetch block never straddles a page.  The
   predictor reports each prediction into its own fields, and the
   fetch pc follows it. *)
let fetch_slots t page off =
  let q = t.ring and bpu = t.bpu in
  let block = fetch_block (fetch_pc q) in
  let i = ref 0 and stop = ref false in
  while not !stop do
    let pc = fetch_pc q in
    let word =
      Int32.to_int (Bytes.get_int32_le page (off + (4 * !i))) land 0xFFFF_FFFF
    in
    let si = Predecode.lookup word in
    Bpu.predict bpu ~pc ~insn:si.Predecode.insn;
    let s = push_slot q ~pc si in
    fr_set64 q s w_pred_next (Bpu.target bpu);
    set_fetch_pc q (Bpu.target bpu);
    incr i;
    stop :=
      bpu.Bpu.taken
      || !i >= t.cfg.fetch_width
      || fetch_block (fetch_pc q) <> block
  done

(* Start a new fetch bundle at the fetch pc: translate, probe the
   icache, decode and predict up to fetch_width sequential slots.
   Mutates the TLB, L1I and BPU -- phase 2 only. *)
let fetch_start_bundle t =
  let q = t.ring and tlb = t.tlb in
  assert (q.fq_len + t.cfg.fetch_width <= q.fr_cap);
  Tlb.translate tlb t.arch.Arch_state.csr (fetch_pc q) Pte.Fetch;
  let tlb_lat = tlb.Tlb.latency in
  if tlb.Tlb.faulted then
    fetch_fault t ~ready_at:(t.now + tlb_lat + 2) tlb.Tlb.exc
  else begin
    let mem = t.plat.Platform.mem in
    let pa0 = Tlb.paddr tlb in
    if not (Memory.in_range mem pa0) then
      fetch_fault t ~ready_at:(t.now + tlb_lat + 2) Trap.Fetch_access
    else begin
      let icache_lat = Softmem.Cache.fetch t.l1i ~addr:pa0 in
      if icache_lat > t.l1i.Softmem.Cache.hit_latency then begin
        t.perf.p_icache_misses <- t.perf.p_icache_misses + 1;
        t.icache_stall_until <-
          max t.icache_stall_until (t.now + tlb_lat + icache_lat)
      end;
      let off = Int64.to_int (Int64.sub pa0 (Memory.base mem)) in
      let page_size = Memory.page_size mem in
      fetch_slots t
        (Memory.read_page mem (off / page_size))
        (off land (page_size - 1));
      q.fb_ready_at <- t.now + tlb_lat + icache_lat + 2
    end
  end

(* Live fetch evaluation (the pre-refactor do_fetch).  Used when a
   flush in this cycle invalidated the phase-1 fetch plan: the
   redirected target starts fetching in the same cycle, exactly as
   the ordered model did. *)
let fetch_live t =
  fetch_complete_now t;
  let q = t.ring in
  if
    q.fb_ready_at = no_bundle
    && (not t.fetch_stalled)
    && q.fq_len + t.cfg.fetch_width <= t.cfg.fetch_buffer
  then fetch_start_bundle t

(* Phase 1: decide bundle completion and new-bundle start from the
   snapshot.  Headroom counts the start-of-cycle queue plus the items
   a completion would add -- NOT the slots dispatch will free this
   cycle (conservative snapshot claim; see the arbitration table). *)
let step_fetch t =
  let q = t.ring in
  let fe_complete =
    q.fb_ready_at <> no_bundle && t.now + 1 >= q.fb_ready_at
  in
  let qlen = q.fq_len + if fe_complete then q.fb_n else 0 in
  let e = t.plan.ef_fetch in
  e.fe_complete <- fe_complete;
  e.fe_start <-
    (q.fb_ready_at = no_bundle || fe_complete)
    && (not t.fetch_stalled)
    && qlen + t.cfg.fetch_width <= t.cfg.fetch_buffer

let apply_fetch t (eff : fetch_eff) =
  if t.flushed_at = t.now then
    (* the plan predates a redirect: re-evaluate live so the new
       target starts fetching this cycle (a mispredict redirect left
       a refill bubble in flight, which blocks the new bundle) *)
    fetch_live t
  else begin
    if eff.fe_complete then fetch_complete_now t;
    if eff.fe_start && t.ring.fb_ready_at = no_bundle && not t.fetch_stalled
    then fetch_start_bundle t
  end

(* ---------------- dispatch (decode + rename) ------------------------- *)

(* PUBS: mark the producer slice of an unconfident branch as high
   priority, walking the define table transitively from the
   architectural integer source [r]. *)
let rec mark_slice t ~depth r =
  if depth > 0 && r > 0 then
    let seq = t.def_table.(r) in
    if seq >= 0 && Rob.mem t.rob seq then begin
      let u = t.rob.Rob.uops in
      let p = Uop.row u seq in
      if
        Uop.get u p Uop.i_state <> Uop.completed
        && not (Uop.flag u p Uop.b_priority)
      then begin
        Uop.set_flag u p Uop.b_priority true;
        t.perf.p_hi_prio <- t.perf.p_hi_prio + 1;
        for i = 0 to Uop.get u p Uop.i_n_src - 1 do
          if not (Uop.src_fp u p i) then
            mark_slice t ~depth:(depth - 1) (Uop.arch_src u p i)
        done
      end
    end

(* Is this instruction a move-eliminable register copy? *)
let move_eliminable t (si : Predecode.t) ~faulted ~fused =
  t.cfg.move_elim && (not fused) && (not faulted)
  &&
  match si.Predecode.insn with
  | Op_imm (ADD, rd, rs, 0L) when rd <> 0 && rs <> 0 -> true
  | _ -> false

(* Phase 1: plan this cycle's dispatch group against the snapshot, into
   the dispatch plan buffer.  Structural claims (ROB/IQ/LQ/SQ slots,
   free physical registers) are threaded through the plan so the group
   can never over-subscribe the start-of-cycle occupancies; slots freed
   by commit or issue in the same cycle become usable next cycle.  The
   fetch queue is walked by position (it is unmodified during phase 1),
   and each slot is classified from its instruction's static record
   first: only a slot the group accepts gets its uop, written in place
   into the ROB row of its pre-assigned seq.  Rows past the tail are
   not live, so no other planner reads them. *)
let step_dispatch t =
  let d = t.plan.ef_dispatch in
  d.dp_n <- 0;
  d.dp_stall <- None;
  let q = t.ring in
  let iq_occ = d.dp_iq_occ in
  for i = 0 to Array.length t.iqs - 1 do
    iq_occ.(i) <- Iq.occupancy t.iqs.(i)
  done;
  let rob_free = ref (t.cfg.rob_size - Rob.count t.rob) in
  let lq_free = ref (t.cfg.lq_size - Lsu.lq_occupancy t.lsu) in
  let sq_free = ref (t.cfg.sq_size - Lsu.sq_occupancy t.lsu) in
  let int_free = ref (Rename.free_count t.rename ~is_fp:false) in
  let fp_free = ref (Rename.free_count t.rename ~is_fp:true) in
  let seq = ref t.seq in
  let budget = ref t.cfg.decode_width in
  let pos = ref 0 in
  while !budget > 0 && Option.is_none d.dp_stall && !pos < q.fq_len do
    let s = fr_slot q !pos in
    if !rob_free <= 0 then d.dp_stall <- Some Rob_full
    else begin
      let si = q.fr_si.(s) in
      let pc = fr_get64 q s w_pc in
      (* fusion candidate: the next queued instruction, only if it is
         the sequential successor *)
      let s2 = fr_slot q (!pos + 1) in
      let fusion =
        if
          t.cfg.fusion && !budget >= 2
          && !pos + 1 < q.fq_len
          && Int64.equal (fr_get64 q s w_pred_next) (Int64.add pc 4L)
          && Int64.equal (fr_get64 q s2 w_pc) (Int64.add pc 4L)
        then Fusion.try_fuse si.Predecode.insn q.fr_si.(s2).Predecode.insn
        else None
      in
      let fused = Option.is_some fusion in
      let faulted = fr_get q s f_fault <> no_fault in
      let is_load = si.uses_lq and is_store = si.uses_sq in
      (* a fused pair writes its first instruction's destination *)
      let int_dest = si.rd >= 0 && not si.rd_is_fp in
      let fp_dest = si.rd >= 0 && si.rd_is_fp in
      let queued = si.where = Predecode.In_iq && not faulted in
      let iq_target =
        if queued then begin
          (* least-occupied accepting IQ, snapshot + planned *)
          let route = t.iq_route.(class_index si.exec_class) in
          let best = ref (-1) in
          for k = 0 to Array.length route - 1 do
            let i = route.(k) in
            if
              iq_occ.(i) < Iq.capacity t.iqs.(i)
              && (!best < 0 || iq_occ.(i) < iq_occ.(!best))
            then best := i
          done;
          !best
        end
        else -1
      in
      let iq_ok = (not queued) || iq_target >= 0 in
      let lsu_ok =
        ((not is_load) || !lq_free > 0) && ((not is_store) || !sq_free > 0)
      in
      let int_free_ok = (not int_dest) || !int_free > 0 in
      let fp_free_ok = (not fp_dest) || !fp_free > 0 in
      (* attribute a stall to the first scarce resource *)
      if not iq_ok then d.dp_stall <- Some Iq_full
      else if not lsu_ok then
        d.dp_stall <-
          (if is_load && !lq_free <= 0 then Some Lq_full else Some Sq_full)
      else if not int_free_ok then d.dp_stall <- Some Freelist_int
      else if not fp_free_ok then d.dp_stall <- Some Freelist_fp
      else begin
        let eliminated = move_eliminable t si ~faulted ~fused in
        (* thread the claims the group has now taken *)
        decr rob_free;
        if (not faulted) && not eliminated then begin
          if iq_target >= 0 then iq_occ.(iq_target) <- iq_occ.(iq_target) + 1;
          if is_load then decr lq_free;
          if is_store then decr sq_free
        end;
        if not eliminated then begin
          if int_dest then decr int_free;
          if fp_dest then decr fp_free
        end;
        let uops = t.rob.Rob.uops in
        let r = Uop.row uops !seq in
        Uop.init uops ~seq:!seq ~si
          ~second:(if fused then q.fr_si.(s2) else Predecode.none)
          ~fusion;
        Uop.set_pcs uops r ~pc
          ~pred_next:(fr_get64 q (if fused then s2 else s) w_pred_next);
        if faulted then
          Uop.set_exc uops r (Trap.exc_of_code (fr_get q s f_fault)) pc;
        let p = d.dp_plans.(d.dp_n) in
        p.pl_seq <- !seq;
        p.pl_fseq <- fr_get q s f_seq;
        p.pl_fused <- fused;
        p.pl_iq <- iq_target;
        p.pl_eliminated <- eliminated;
        d.dp_n <- d.dp_n + 1;
        incr seq;
        let width = if fused then 2 else 1 in
        budget := !budget - width;
        pos := !pos + width
      end
    end
  done

(* Phase 2: execute the dispatch plan -- rename, allocate, push into
   ROB/IQ/LSU.  A flush earlier in this cycle's application (commit
   trap/serialise/interrupt or an issue redirect) cancels the whole
   plan: the planned uops were never architecturally visible.  Claims
   are also revalidated against the live structures: a fault hook
   firing at the effect boundary may have consumed what the plan
   reserved, in which case dispatch degrades to a stall and retries
   next cycle.  The plan buffer is reset either way. *)
let apply_dispatch t (eff : dispatch_eff) =
  let uops = t.rob.Rob.uops in
  if t.flushed_at <> t.now then begin
    let q = t.ring in
    let aborted = ref false and i = ref 0 in
    while (not !aborted) && !i < eff.dp_n do
      let p = eff.dp_plans.(!i) in
      incr i;
      let seq = p.pl_seq in
      let r = Uop.row uops seq in
      let si = Uop.si uops r in
      let rd = si.Predecode.rd and rd_fp = si.Predecode.rd_is_fp in
      if
        Rob.is_full t.rob
        || seq <> t.seq
        (* the planned head item must still be queued: a boundary-hook
           flush empties the ring, even if it left seq/ROB looking
           untouched, and fetch numbers are never reused *)
        || q.fq_len = 0
        || fr_get q q.fr_head f_seq <> p.pl_fseq
        || rd >= 0 && (not rd_fp) && (not p.pl_eliminated)
           && not (Rename.can_alloc t.rename ~is_fp:false)
        || (rd >= 0 && rd_fp && not (Rename.can_alloc t.rename ~is_fp:true))
      then aborted := true
      else begin
        let h = q.fr_head in
        let faulted = fr_get q h f_fault <> no_fault in
        (* consume the planned queue items *)
        fq_pop q;
        if p.pl_fused then fq_pop q;
        (* rename sources in place: the planner left architectural
           numbers in the source fields *)
        for j = 0 to Uop.get uops r Uop.i_n_src - 1 do
          Uop.set_psrc uops r j
            (Rename.lookup t.rename ~is_fp:(Uop.src_fp uops r j)
               (Uop.psrc uops r j))
        done;
        (match (p.pl_eliminated, si.Predecode.insn) with
        | true, Op_imm (ADD, rd, rs, _) ->
            let prd, old_prd = Rename.alias t.rename ~arch_rd:rd ~arch_rs:rs in
            Uop.set uops r Uop.i_prd prd;
            Uop.set uops r Uop.i_old_prd old_prd;
            Uop.set uops r Uop.i_state Uop.completed;
            Uop.set uops r Uop.i_done_at t.now;
            Uop.set_flag uops r Uop.b_eliminated true;
            t.perf.p_moves_eliminated <- t.perf.p_moves_eliminated + 1;
            t.def_table.(rd) <- seq
        | _ ->
            if rd >= 0 then begin
              let prd, old_prd =
                Rename.alloc t.rename ~is_fp:rd_fp ~arch:rd ~now:t.now
              in
              Uop.set uops r Uop.i_prd prd;
              Uop.set uops r Uop.i_old_prd old_prd;
              if not rd_fp then t.def_table.(rd) <- seq
            end);
        (* allocate in ROB + queues *)
        t.seq <- t.seq + 1;
        Rob.push t.rob seq;
        if p.pl_fused then t.perf.p_fused <- t.perf.p_fused + 1;
        t.perf.p_dispatched <- t.perf.p_dispatched + 1;
        if (not faulted) && not p.pl_eliminated then begin
          if p.pl_iq >= 0 then Iq.insert t.iqs.(p.pl_iq) seq;
          if si.Predecode.uses_lq then Lsu.insert_load t.lsu seq;
          if si.Predecode.uses_sq then Lsu.insert_store t.lsu seq
        end
        else if faulted then begin
          (* faulting fetch: deliver the exception at commit *)
          Uop.set uops r Uop.i_state Uop.completed;
          Uop.set uops r Uop.i_done_at t.now
        end;
        (* PUBS: mark unconfident branch slices *)
        (if t.cfg.issue_policy = Config.Pubs then
           match si.Predecode.insn with
           | Branch (_, rs1, rs2, _)
             when Bpu.unconfident t.bpu ~pc:(fr_get64 q h w_pc) ->
               Uop.set_flag uops r Uop.b_priority true;
               t.perf.p_hi_prio <- t.perf.p_hi_prio + 1;
               mark_slice t ~depth:2 rs1;
               mark_slice t ~depth:2 rs2
           | _ -> ());
        match t.tracer with
        | Some tr ->
            Perf.Pipetrace.on_dispatch tr ~seq ~pc:(fr_get64 q h w_pc)
              ~label:(Insn.show si.Predecode.insn)
              ~fetched_at:(fr_get q h f_fetched_at)
              ~now:t.now;
            (* eliminated moves and faulting fetches never issue;
               close their execute window at dispatch *)
            if p.pl_eliminated || faulted then begin
              Perf.Pipetrace.on_issue tr ~seq ~now:t.now;
              Perf.Pipetrace.on_complete tr ~seq
                ~at:(Uop.get uops r Uop.i_done_at)
            end
        | None -> ()
      end
    done;
    let p = t.perf in
    match eff.dp_stall with
    | Some Rob_full -> p.p_stall_rob_full <- p.p_stall_rob_full + 1
    | Some Iq_full -> p.p_stall_iq_full <- p.p_stall_iq_full + 1
    | Some Lq_full -> p.p_stall_lq_full <- p.p_stall_lq_full + 1
    | Some Sq_full -> p.p_stall_sq_full <- p.p_stall_sq_full + 1
    | Some Freelist_int -> p.p_stall_freelist_int <- p.p_stall_freelist_int + 1
    | Some Freelist_fp -> p.p_stall_freelist_fp <- p.p_stall_freelist_fp + 1
    | None -> ()
  end;
  (* reset the plan buffer; a planned uop that was not dispatched
     leaves its (past-the-tail) row *)
  for i = 0 to eff.dp_n - 1 do
    let p = eff.dp_plans.(i) in
    if p.pl_seq >= t.seq then Uop.release uops (Uop.row uops p.pl_seq);
    p.pl_seq <- -1;
    p.pl_fseq <- -1
  done;
  eff.dp_n <- 0

(* ---------------- issue / execute ------------------------------------ *)

(* Complete the uop in row [r] at cycle [at], writing its result into
   its physical register ([Rename.set_result], unboxed in place). *)
let complete t (u : Uop.t) r ~at =
  Uop.set u r Uop.i_state Uop.completed;
  Uop.set u r Uop.i_done_at at;
  (match t.tracer with
  | Some tr -> Perf.Pipetrace.on_complete tr ~seq:(Uop.get u r Uop.i_seq) ~at
  | None -> ());
  let prd = Uop.get u r Uop.i_prd in
  if prd >= 0 then
    Rename.set_result t.rename ~is_fp:(Uop.si u r).Predecode.rd_is_fp ~prd
      ~value:(Uop.get64 u r Uop.w_result) ~ready_at:at

let complete_with_exc (u : Uop.t) r exc tval ~at =
  Uop.set_exc u r exc tval;
  Uop.set u r Uop.i_state Uop.completed;
  Uop.set u r Uop.i_done_at at

(* The load in row [r], an [ld] or an [fld], read [raw]. *)
let[@inline] set_loaded t (u : Uop.t) r raw =
  Uop.set64 u r Uop.w_result
    (match Uop.insn u r with
    | Load (op, _, _, _) -> Iss.Alu.extend_load op raw
    | _ -> raw);
  Uop.set64 u r Uop.w_load_value raw;
  Uop.set u r Uop.i_mem_cycle t.now

(* A pipelined load in row [r] read [raw]. *)
let load_done t (u : Uop.t) r raw ~at =
  set_loaded t u r raw;
  complete t u r ~at;
  t.perf.p_loads <- t.perf.p_loads + 1

(* The last translation's physical address, boxed once: a load or an
   at-head access hands it to several functions, and an unboxed value
   would be boxed afresh for each. *)
let[@inline] paddr_once tlb = Sys.opaque_identity (Tlb.paddr tlb)

(* Issue the uop in row [r]; returns true if it issued. *)
let issue_uop t r : bool =
  let u = t.rob.Rob.uops in
  let si = Uop.si u r in
  match si.Predecode.exec_class with
  | Config.LOAD -> (
      let vaddr = Exec.agen u r t.rename in
      let size = Uop.get u r Uop.i_msize in
      if Isa.misaligned vaddr size then begin
        complete_with_exc u r Trap.Load_misaligned vaddr ~at:(t.now + 1);
        true
      end
      else begin
        let tlb = t.tlb in
        Tlb.translate tlb t.arch.Arch_state.csr vaddr Pte.Load;
        let tlb_lat = tlb.Tlb.latency in
        if tlb.Tlb.faulted then begin
          complete_with_exc u r tlb.Tlb.exc vaddr ~at:(t.now + 1 + tlb_lat);
          true
        end
        else begin
          let pa = paddr_once tlb in
          Uop.set64 u r Uop.w_paddr pa;
          if Platform.is_mmio t.plat pa then begin
            (* MMIO loads execute at the ROB head *)
            Uop.set_flag u r Uop.b_mmio true;
            Uop.set u r Uop.i_state Uop.issued;
            true
          end
          else begin
            let seq = Uop.get u r Uop.i_seq in
            match Lsu.forward t.lsu ~seq ~paddr:pa ~size with
            | Lsu.Blocked -> false (* retry next cycle *)
            | Lsu.Forward raw ->
                load_done t u r raw ~at:(t.now + 2 + tlb_lat);
                true
            | Lsu.No_match ->
                let raw, lat = Softmem.Cache.read t.l1d ~addr:pa ~size in
                load_done t u r raw ~at:(t.now + 1 + tlb_lat + lat);
                true
          end
        end
      end)
  | Config.STORE -> (
      let vaddr = Exec.agen u r t.rename in
      let size = Uop.get u r Uop.i_msize in
      if Isa.misaligned vaddr size then begin
        complete_with_exc u r Trap.Store_misaligned vaddr ~at:(t.now + 1);
        true
      end
      else begin
        let tlb = t.tlb in
        Tlb.translate tlb t.arch.Arch_state.csr vaddr Pte.Store;
        let tlb_lat = tlb.Tlb.latency in
        if tlb.Tlb.faulted then
          complete_with_exc u r tlb.Tlb.exc vaddr ~at:(t.now + 1 + tlb_lat)
        else begin
          let pa = Tlb.paddr tlb in
          Uop.set64 u r Uop.w_paddr pa;
          Uop.set_flag u r Uop.b_mmio (Platform.is_mmio t.plat pa);
          Uop.set_flag u r Uop.b_addr_ready true;
          Uop.set u r Uop.i_state Uop.completed;
          Uop.set u r Uop.i_done_at (t.now + 1 + tlb_lat);
          t.perf.p_stores <- t.perf.p_stores + 1
        end;
        true
      end)
  | Config.ALU | Config.MUL | Config.DIV | Config.JUMP_CSR | Config.FMAC
  | Config.FMISC ->
      Exec.execute u r t.rename;
      (* fault injection: swallow the resolved redirect and follow the
         (possibly corrupted) prediction instead *)
      (match si.Predecode.insn with
      | (Branch _ | Jal _ | Jalr _)
        when t.bug_trust_bpu > 0 && Uop.flag u r Uop.b_mispredicted
             && not (Uop.flag u r Uop.b_faulted) ->
          Uop.set64 u r Uop.w_next_pc (Uop.get64 u r Uop.w_pred_next);
          Uop.set_flag u r Uop.b_mispredicted false;
          t.bug_trust_bpu <- t.bug_trust_bpu - 1
      | _ -> ());
      complete t u r ~at:(t.now + si.Predecode.latency);
      (* resolve control flow *)
      (match si.Predecode.insn with
      | Branch _ | Jal _ | Jalr _ ->
          let pc = Uop.get64 u r Uop.w_pc
          and next_pc = Uop.get64 u r Uop.w_next_pc in
          let taken =
            not
              (Int64.equal next_pc
                 (Int64.add pc (Int64.of_int (4 * Uop.n_insns u r))))
          in
          Bpu.update t.bpu ~pc ~insn:si.Predecode.insn ~taken ~target:next_pc
            ~mispredicted:(Uop.flag u r Uop.b_mispredicted)
      | _ -> ());
      true

(* Readiness in the cycle being planned (now + 1, the value [t.now]
   holds when phase 2 applies the plan) of the uop in row [r]: register
   sources plus LSU ordering for loads.  Top-level, so passing it to
   [Iq.plan_issue] allocates no closure. *)
let ready_next_cycle t r =
  let u = t.rob.Rob.uops in
  Rename.srcs_ready t.rename u r ~now:(t.now + 1)
  && ((Uop.si u r).Predecode.exec_class <> Config.LOAD
     || Lsu.older_stores_known t.lsu ~seq:(Uop.get u r Uop.i_seq))

(* Phase 1: each IQ fills its own plan buffer under the configured
   policy from one readiness scan, which also yields the Figure 15
   ready count; the planned uops are revalidated at application. *)
let step_issue t =
  let total = ref 0 in
  for i = 0 to Array.length t.iqs - 1 do
    total := !total + Iq.plan_issue t.iqs.(i) ~ready:ready_next_cycle t
  done;
  t.plan.ef_issue.ie_ready_total <- !total

let apply_issue t (eff : issue_eff) =
  t.perf.ready_hist.(min eff.ie_ready_total 16) <-
    t.perf.ready_hist.(min eff.ie_ready_total 16) + 1;
  let u = t.rob.Rob.uops in
  (* the oldest resolved mispredict among this cycle's issues, -1 = none *)
  let redirect = ref (-1) in
  for i = 0 to Array.length t.iqs - 1 do
    let iq = t.iqs.(i) in
    for j = 0 to Iq.planned iq - 1 do
      let seq = Iq.planned_seq iq j in
      let r = Uop.row u seq in
      (* revalidate the phase-1 selection: a boundary fault hook may
         have stolen it from the queue (Iq.steal_waiting, observable
         as the O(1) in_iq flag) -- issuing it anyway would mask the
         fault.  A flush earlier in this cycle dropped the uops it
         squashed from the plan (Iq.drop_squashed). *)
      if
        Uop.live u seq
        && Uop.get u r Uop.i_state = Uop.waiting
        && Uop.flag u r Uop.b_in_iq
      then
        if issue_uop t r then begin
          (match t.tracer with
          | Some tr -> Perf.Pipetrace.on_issue tr ~seq ~now:t.now
          | None -> ());
          if Uop.get u r Uop.i_state <> Uop.waiting then Iq.remove iq seq;
          if
            Uop.flag u r Uop.b_mispredicted
            && (not (Uop.flag u r Uop.b_faulted))
            && (!redirect < 0 || seq < !redirect)
          then redirect := seq
        end
    done;
    Iq.clear_plan iq
  done;
  if !redirect >= 0 then begin
    (* redirect-vs-commit arbitration: the oldest resolved mispredict
       wins among this cycle's issues; commit already applied, so an
       older trap/serialise flush has squashed the issuing uop and
       suppressed the redirect via revalidation *)
    flush ~cause:`Misp t ~after:!redirect
      ~target:(Uop.get64 u (Uop.row u !redirect) Uop.w_next_pc);
    t.recover_misp <- true;
    (* model the resolve + refill bubble *)
    t.ring.fb_ready_at <- t.now + mispredict_penalty
  end

(* ---------------- at-commit execution -------------------------------- *)

(* The uop in row [r] finished at the ROB head; commit is busy with it
   for [lat] cycles. *)
let finish t (u : Uop.t) r ~lat =
  complete t u r ~at:t.now;
  t.commit_busy_until <- t.now + lat

(* The uop in row [r] raised [exc] at the ROB head. *)
let fault t (u : Uop.t) r exc tval = complete_with_exc u r exc tval ~at:t.now

(* Drain the whole store buffer before an at-head access. *)
let drain_sb t =
  let lat = Lsu.drain_all t.lsu ~now:t.now ~on_drain:t.on_drain in
  t.commit_busy_until <- max t.commit_busy_until (t.now + lat)

(* The physical address of an at-head access to [vaddr]; a page fault
   raises. *)
let translate_at_head t vaddr access =
  let tlb = t.tlb in
  Tlb.translate tlb t.arch.Arch_state.csr vaddr access;
  if tlb.Tlb.faulted then raise (Trap.Exception (tlb.Tlb.exc, vaddr));
  paddr_once tlb

(* Record an at-head access in row [r]. *)
let note_access (u : Uop.t) r ~vaddr ~pa ~size =
  Uop.set64 u r Uop.w_vaddr vaddr;
  Uop.set64 u r Uop.w_paddr pa;
  Uop.set u r Uop.i_msize size

(* Execute the uop in row [r] at the ROB head; an instruction the ISA
   rules refuse ([Riscv.Isa]) raises.  Its helpers are top-level
   functions: local closures would be allocated on every call. *)
let execute_insn_at_head t (u : Uop.t) r =
  let arch = t.arch in
  let csr = arch.Arch_state.csr in
  match Uop.insn u r with
  | Csr (op, rd, rs1, addr) ->
      (* mcycle counts core cycles.  Only a CSR instruction can read
         it, and it executes here, so it is brought up to date here
         rather than boxed afresh every cycle (a write to it is
         serialising, so no read shares its cycle) *)
      csr.Csr.reg_mcycle <- Int64.of_int t.now;
      Uop.set64 u r Uop.w_result
        (Isa.csr_rmw csr op ~rd ~rs1
           ~rs1_value:(Arch_state.get_reg arch rs1)
           addr);
      Uop.set u r Uop.i_csr_addr addr;
      finish t u r ~lat:1
  | Ecall -> Isa.ecall csr
  | Ebreak -> fault t u r Trap.Breakpoint (Uop.get64 u r Uop.w_pc)
  | Mret ->
      Uop.set64 u r Uop.w_next_pc (Isa.mret csr);
      finish t u r ~lat:1
  | Sret ->
      Uop.set64 u r Uop.w_next_pc (Isa.sret csr);
      finish t u r ~lat:1
  | Wfi -> finish t u r ~lat:1
  | Fence ->
      drain_sb t;
      finish t u r ~lat:1
  | Fence_i -> finish t u r ~lat:1
  | Sfence_vma (_, _) ->
      Isa.sfence_vma csr;
      (* sfence.vma orders preceding stores before subsequent implicit
         page-table reads: drain the store buffer, then drop cached
         translations (including cached faults) *)
      drain_sb t;
      Tlb.flush t.tlb;
      finish t u r ~lat:1
  | Illegal _ -> fault t u r Trap.Illegal_instruction 0L
  | Lr (w, _, rs1) ->
      let size = Iss.Alu.amo_size w and vaddr = Arch_state.get_reg arch rs1 in
      Isa.check_aligned vaddr size Trap.Load_misaligned;
      let pa = translate_at_head t vaddr Pte.Load in
      Isa.check_dram t.plat pa Trap.Load_access ~vaddr;
      let raw, lat = Softmem.Cache.read t.l1d ~addr:pa ~size in
      Uop.set64 u r Uop.w_result (Iss.Alu.extend_amo w raw);
      Uop.set64 u r Uop.w_load_value raw;
      Uop.set u r Uop.i_mem_cycle t.now;
      note_access u r ~vaddr ~pa ~size;
      Lsu.set_reservation t.lsu ~paddr:pa ~now:t.now;
      finish t u r ~lat
  | Sc (w, _, rs1, rs2) ->
      let size = Iss.Alu.amo_size w and vaddr = Arch_state.get_reg arch rs1 in
      Isa.check_aligned vaddr size Trap.Store_misaligned;
      let pa = translate_at_head t vaddr Pte.Store in
      let ok = Lsu.reservation_valid t.lsu ~paddr:pa ~now:t.now in
      Lsu.clear_reservation t.lsu;
      note_access u r ~vaddr ~pa ~size;
      if ok then begin
        drain_sb t;
        let lat =
          Softmem.Cache.write t.l1d ~addr:pa ~size (Arch_state.get_reg arch rs2)
        in
        drain_notify t pa size;
        Uop.set64 u r Uop.w_sdata (Arch_state.get_reg arch rs2);
        Uop.set_flag u r Uop.b_addr_ready true;
        Uop.set64 u r Uop.w_result 0L;
        finish t u r ~lat
      end
      else begin
        Uop.set64 u r Uop.w_result 1L;
        Uop.set_flag u r Uop.b_sc_failed true;
        finish t u r ~lat:1
      end
  | Amo (op, w, _, rs1, rs2) ->
      let size = Iss.Alu.amo_size w and vaddr = Arch_state.get_reg arch rs1 in
      Isa.check_aligned vaddr size Trap.Store_misaligned;
      let pa = translate_at_head t vaddr Pte.Store in
      Isa.check_dram t.plat pa Trap.Store_access ~vaddr;
      drain_sb t;
      let raw, rlat = Softmem.Cache.read t.l1d ~addr:pa ~size in
      (* [eval_amo] sign-extends a word itself, so the old value is
         never boxed *)
      let new_v = Iss.Alu.eval_amo op w raw (Arch_state.get_reg arch rs2) in
      let wlat = Softmem.Cache.write t.l1d ~addr:pa ~size new_v in
      drain_notify t pa size;
      Uop.set64 u r Uop.w_result (Iss.Alu.extend_amo w raw);
      Uop.set64 u r Uop.w_load_value raw;
      Uop.set u r Uop.i_mem_cycle t.now;
      Uop.set64 u r Uop.w_sdata new_v;
      note_access u r ~vaddr ~pa ~size;
      Uop.set_flag u r Uop.b_addr_ready true;
      finish t u r ~lat:(rlat + wlat)
  | Load _ | Fld _ -> (
      (* MMIO load discovered at issue; strongly ordered *)
      assert (Uop.flag u r Uop.b_mmio);
      let drained = Lsu.drain_all t.lsu ~now:t.now ~on_drain:t.on_drain in
      match
        Platform.read t.plat ~addr:(Uop.get64 u r Uop.w_paddr)
          ~size:(Uop.get u r Uop.i_msize)
      with
      | raw ->
          set_loaded t u r raw;
          finish t u r ~lat:(20 + drained)
      | exception Platform.Bus_fault _ ->
          fault t u r Trap.Load_access (Uop.get64 u r Uop.w_vaddr))
  | Lui _ | Auipc _ | Jal _ | Jalr _ | Branch _ | Store _ | Fsd _
  | Op_imm _ | Op_imm_w _ | Op _ | Op_w _ | Mul _ | Mul_w _ | Fp_rrr _
  | Fp_fused _ | Fp_sign _ | Fp_minmax _ | Fp_cmp _ | Fsqrt_d _
  | Fcvt_d_l _ | Fcvt_d_lu _ | Fcvt_d_w _ | Fcvt_l_d _ | Fcvt_lu_d _
  | Fcvt_w_d _ | Fmv_x_d _ | Fmv_d_x _ | Fclass_d _ ->
      assert false

(* Execute the uop in row [r] at the ROB head; a refused instruction
   faults the uop. *)
let execute_at_head t r : unit =
  let u = t.rob.Rob.uops in
  try execute_insn_at_head t u r
  with Trap.Exception (exc, tval) -> fault t u r exc tval

(* ---------------- commit ---------------------------------------------- *)

exception Stop_commit

(* The next commit slot, filled with what every commit reports.  A
   slot outlives the minor heap, so every pointer store into it goes
   through the write barrier: the options, usually [None] in both the
   slot and the commit, are stored only when they change. *)
let next_slot t ~pc ~insn ~next_pc ~trap ~interrupt =
  let p = t.slots.(t.n_slots) in
  t.n_slots <- t.n_slots + 1;
  p.Probe.p_cycle <- t.now;
  p.Probe.p_pc <- pc;
  p.Probe.p_insn <- insn;
  p.Probe.p_next_pc <- next_pc;
  if p.Probe.p_trap != trap then p.Probe.p_trap <- trap;
  if p.Probe.p_interrupt != interrupt then p.Probe.p_interrupt <- interrupt;
  p.Probe.p_instret <- t.arch.Arch_state.csr.Csr.reg_minstret;
  p

(* Report the uop in row [r].  [pc] and [next_pc] are its pc and next
   pc, boxed by the caller (which shares the boxes with the
   architectural pc); the access fields, meaningful only with an
   access, are stored only then. *)
let emit_probe t r ~pc ~next_pc ~trap =
  let u = t.rob.Rob.uops in
  let insn = Uop.insn u r in
  let sc_failed = Uop.flag u r Uop.b_sc_failed
  and faulted = Uop.flag u r Uop.b_faulted in
  (match insn with
  | Insn.Sc _ when trap = None ->
      if sc_failed then t.perf.p_sc_failures <- t.perf.p_sc_failures + 1
      else t.perf.p_sc_success <- t.perf.p_sc_success + 1
  | _ -> ());
  let p = next_slot t ~pc ~insn ~next_pc ~trap ~interrupt:None in
  let has_load =
    (Uop.is_load u r || Insn.is_amo insn)
    && trap = None && (not faulted)
    && (match insn with Sc _ -> false | _ -> true)
  and has_store = Uop.is_store u r && (not faulted) && not sc_failed in
  p.Probe.p_has_load <- has_load;
  p.Probe.p_has_store <- has_store;
  if has_load || has_store then begin
    p.Probe.p_mem_paddr <- Uop.get64 u r Uop.w_paddr;
    p.Probe.p_mem_size <- Uop.get u r Uop.i_msize;
    p.Probe.p_mem_cycle <- Uop.get u r Uop.i_mem_cycle;
    if has_load then p.Probe.p_load_value <- Uop.get64 u r Uop.w_load_value;
    if has_store then p.Probe.p_store_value <- Uop.get64 u r Uop.w_sdata
  end;
  (if Uop.get u r Uop.i_fusion <> Uop.no_fusion then
     p.Probe.p_second <- Some (Uop.second u r).Predecode.insn
   else if p.Probe.p_second != None then p.Probe.p_second <- None);
  p.Probe.p_sc_failed <- sc_failed;
  (let a = Uop.get u r Uop.i_csr_addr in
   if a >= 0 then p.Probe.p_csr_read <- Some (a, Uop.get64 u r Uop.w_result)
   else if p.Probe.p_csr_read != None then p.Probe.p_csr_read <- None);
  p.Probe.p_mmio <- Uop.flag u r Uop.b_mmio;
  t.probes.Probe.on_commit p

let nop = Insn.Op_imm (ADD, 0, 0, 0L)

(* Report an interrupt taken at [pc], entering the handler at
   [target]: a commit of no instruction. *)
let emit_interrupt t irq ~pc ~target =
  let p =
    next_slot t ~pc ~insn:nop ~next_pc:target ~trap:None
      ~interrupt:(Some irq)
  in
  p.Probe.p_has_load <- false;
  p.Probe.p_has_store <- false;
  if p.Probe.p_second != None then p.Probe.p_second <- None;
  p.Probe.p_sc_failed <- false;
  if p.Probe.p_csr_read != None then p.Probe.p_csr_read <- None;
  p.Probe.p_mmio <- false;
  t.probes.Probe.on_commit p

(* Phase 1: sample the interrupt lines the commit stage will observe.
   The CLINT is SoC-shared mutable state; snapshotting the two wires
   here keeps the retire walk (inherently sequential, every retired
   uop mutates architectural state) deterministic regardless of when
   other units evaluate. *)
let step_commit t =
  let e = t.plan.ef_commit in
  e.ce_mtip <- Platform.Clint.mtip t.plat.Platform.clint t.hartid;
  e.ce_msip <- Platform.Clint.msip t.plat.Platform.clint t.hartid

(* Box 64-bit field [f] of row [r], reusing [box] when it holds the
   same value: the architectural pc already holds a retiring uop's pc. *)
let[@inline] boxed_as box u r f =
  let v = Uop.get64 u r f in
  if Int64.equal v box then box else Sys.opaque_identity v

let apply_commit t (eff : commit_eff) =
  if t.now < t.commit_busy_until then ()
  else begin
    (* interrupts are taken at commit boundaries *)
    let csr = t.arch.Arch_state.csr in
    Csr.set_mip_bit csr Csr.ip_mtip eff.ce_mtip;
    Csr.set_mip_bit csr Csr.ip_msip eff.ce_msip;
    match Trap.pending_interrupt csr with
    | Some irq ->
        let epc = t.arch.Arch_state.pc in
        let target = Trap.take_interrupt csr irq ~epc in
        Arch_state.set_pc t.arch target;
        t.perf.p_interrupts <- t.perf.p_interrupts + 1;
        emit_interrupt t irq ~pc:epc ~target;
        flush ~cause:`Trap t ~after:(t.rob.Rob.head - 1) ~target
    | None -> (
        let u = t.rob.Rob.uops in
        try
          let budget = ref t.cfg.decode_width in
          while !budget > 0 do
            if Rob.is_empty t.rob then raise Stop_commit;
            let seq = Rob.head_seq t.rob in
            let r = Uop.row u seq in
            if
              Uop.get u r Uop.i_state = Uop.completed
              && Uop.get u r Uop.i_done_at <= t.now
            then begin
              let pc = boxed_as t.arch.Arch_state.pc u r Uop.w_pc in
              if Uop.flag u r Uop.b_faulted then begin
                let exc = Uop.exc u r and tval = Uop.tval u r in
                t.perf.p_traps <- t.perf.p_traps + 1;
                emit_probe t r ~pc
                  ~next_pc:(Uop.get64 u r Uop.w_next_pc)
                  ~trap:(Some (exc, tval));
                let target = Trap.take_exception csr exc tval ~epc:pc in
                Arch_state.set_pc t.arch target;
                flush ~cause:`Trap t ~after:(seq - 1) ~target;
                raise Stop_commit
              end;
              (* stores need a store-buffer slot (or are MMIO) *)
              if Uop.is_store u r then begin
                if Uop.flag u r Uop.b_mmio then begin
                  let lat =
                    Lsu.drain_all t.lsu ~now:t.now ~on_drain:t.on_drain
                  in
                  (try
                     Platform.write t.plat
                       ~addr:(Uop.get64 u r Uop.w_paddr)
                       ~size:(Uop.get u r Uop.i_msize)
                       (Uop.get64 u r Uop.w_sdata)
                   with Platform.Bus_fault _ -> ());
                  Lsu.remove_store t.lsu seq;
                  t.commit_busy_until <- t.now + lat + 20
                end
                else begin
                  if Lsu.sb_full t.lsu then begin
                    t.perf.p_stall_sb_full <- t.perf.p_stall_sb_full + 1;
                    raise Stop_commit
                  end;
                  Lsu.commit_store t.lsu seq
                end
              end;
              if Uop.is_load u r then Lsu.remove_load t.lsu seq;
              if Uop.flag u r Uop.b_eliminated then
                Uop.set64 u r Uop.w_result
                  (Rename.reg_value t.rename ~is_fp:false
                     (Uop.get u r Uop.i_prd));
              (* architectural update *)
              let si = Uop.si u r in
              if si.Predecode.rd >= 0 then begin
                let v = Uop.get64 u r Uop.w_result in
                if si.Predecode.rd_is_fp then
                  Arch_state.set_freg t.arch si.Predecode.rd v
                else Arch_state.set_reg t.arch si.Predecode.rd v
              end;
              let next_pc = Sys.opaque_identity (Uop.get64 u r Uop.w_next_pc) in
              Arch_state.set_pc t.arch next_pc;
              let n_insns = Uop.n_insns u r in
              csr.Csr.reg_minstret <- csr.Csr.reg_minstret + n_insns;
              t.perf.p_instrs <- t.perf.p_instrs + n_insns;
              t.perf.p_uops <- t.perf.p_uops + 1;
              emit_probe t r ~pc ~next_pc ~trap:None;
              (match t.tracer with
              | Some tr -> Perf.Pipetrace.on_commit tr ~seq ~now:t.now
              | None -> ());
              Rename.commit_release t.rename ~is_fp:si.Predecode.rd_is_fp
                ~old_prd:(Uop.get u r Uop.i_old_prd);
              Rob.pop_head t.rob;
              Uop.release u r;
              budget := !budget - n_insns;
              (* serialising instructions flush the pipeline *)
              match si.Predecode.insn with
              | Csr _ | Mret | Sret | Fence_i | Sfence_vma _ | Wfi ->
                  flush ~cause:`Serial t ~after:seq ~target:next_pc;
                  raise Stop_commit
              | _ -> ()
            end
            else if
              Uop.get u r Uop.i_state <> Uop.completed
              && ((Uop.si u r).Predecode.where = Predecode.At_commit
                 || Uop.flag u r Uop.b_mmio
                    && Uop.get u r Uop.i_state = Uop.issued)
            then begin
              execute_at_head t r;
              (* loop re-examines the now-completed head *)
              if Uop.get u r Uop.i_state <> Uop.completed then raise Stop_commit
            end
            else raise Stop_commit
          done
        with Stop_commit -> ())
  end

(* ---------------- store-buffer drain ---------------------------------- *)

(* Phase 1: snapshot drain eligibility.  A store committed in this
   cycle's application enters the buffer after this decision, so it
   becomes drain-eligible the following cycle (the "commit enqueues
   before drain dequeues, drain decides from the snapshot"
   arbitration row). *)
let step_drain t =
  t.plan.ef_drain.de_fire <- Lsu.drain_ready t.lsu ~now:(t.now + 1)

(* ---------------- per-cycle driver ------------------------------------ *)

(* Top-down CPI stack: attribute this cycle to exactly one Level-2
   bucket (one counter increment per cycle, so the buckets sum to
   measured cycles by construction).  Decision order: useful work,
   then speculation recovery, then an empty window (frontend), then
   whatever the ROB head is blocked on (backend).  Runs in phase 2,
   right after commit applies: the attribution inputs (ROB head,
   recovery windows) are this cycle's retirement outcome, which no
   phase-1 ordering can perturb. *)
let attribute_topdown t ~committed =
  let open Perf in
  let bucket =
    if committed > 0 then Topdown.Base
    else if t.now < t.recover_until then
      if t.recover_misp then Topdown.Badspec_mispredict
      else Topdown.Badspec_flush
    else if Rob.is_empty t.rob then
      if t.now < t.icache_stall_until then Topdown.Frontend_icache
      else Topdown.Frontend_fetch
    else
      let u = t.rob.Rob.uops in
      let r = Uop.row u (Rob.head_seq t.rob) in
      let si = Uop.si u r in
      let mem_bucket () =
        match si.Predecode.insn with
        | Insn.Sc _ | Insn.Amo _ -> Topdown.Mem_store
        | _ -> Topdown.Mem_load
      in
      let state = Uop.get u r Uop.i_state in
      if
        state = Uop.completed
        && Uop.get u r Uop.i_done_at <= t.now
        && t.now >= t.commit_busy_until
      then
        (* done and commit idle, yet nothing retired: the head store
           is blocked on a store-buffer slot *)
        Topdown.Mem_store
      else
        (* the head is still finishing, executing or waiting: charge
           its execution class *)
        match si.Predecode.exec_class with
        | Config.LOAD -> mem_bucket ()
        | Config.STORE -> Topdown.Mem_store
        | _ ->
            if state = Uop.waiting then Topdown.Core_dep else Topdown.Core_exec
  in
  let i = Topdown.index bucket in
  t.perf.p_td.(i) <- t.perf.p_td.(i) + 1

let planners = [| step_commit; step_issue; step_drain; step_dispatch; step_fetch |]

(* Phase 1: evaluate every unit's planner against the read-only
   start-of-cycle state, each into its own buffer of [t.plan].  Under
   [Default_order] the planners run in the canonical order; under
   [Shuffle seed] they run in a fresh seeded permutation each cycle.
   Because phase 1 is pure, the two must be byte-identical -- the
   permutation harness exists to catch any unit that sneaks a mutation
   or a cross-unit read into its planning. *)
let step t : effects =
  (match t.phase_order with
  | Default_order ->
      step_commit t;
      step_issue t;
      step_drain t;
      step_dispatch t;
      step_fetch t
  | Shuffle seed ->
      let order = Array.copy planners in
      (* Fisher-Yates over the five planners, driven by a small LCG
         seeded from (seed, cycle): deterministic per cycle, different
         across cycles, marshal-safe (no global RNG state) *)
      let state = ref ((seed * 0x9E3779B9) + ((t.now + 1) * 0x85EBCA6B)) in
      let rand n =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state mod n
      in
      for i = 4 downto 1 do
        let j = rand (i + 1) in
        let tmp = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- tmp
      done;
      Array.iter (fun plan -> plan t) order);
  t.plan

(* Phase 2: advance the clock and commit every effect in the one
   canonical order.  This order -- and the revalidation each
   application performs -- IS the arbitration; see the DESIGN.md
   table.  Fault hooks registered on the SoC fire between [step] and
   [apply] (the effect boundary). *)
let apply t (e : effects) =
  t.now <- t.now + 1;
  t.n_slots <- 0;
  t.perf.p_cycles <- t.perf.p_cycles + 1;
  Softmem.Cache.set_now t.l1i t.now;
  Softmem.Cache.set_now t.l1d t.now;
  let uops_before = t.perf.p_uops in
  apply_commit t e.ef_commit;
  let committed = t.perf.p_uops - uops_before in
  let w = min committed 8 in
  t.perf.p_commit_width.(w) <- t.perf.p_commit_width.(w) + 1;
  attribute_topdown t ~committed;
  apply_issue t e.ef_issue;
  if e.ef_drain.de_fire then
    Lsu.drain t.lsu ~now:t.now ~on_drain:t.on_drain;
  if t.ring.fq_len = 0 then
    t.perf.p_fetch_bubbles <- t.perf.p_fetch_bubbles + 1;
  apply_dispatch t e.ef_dispatch;
  apply_fetch t e.ef_fetch;
  (* edge probe: PTW walks performed while a flush-recovery window is
     open (stale-translation refetch territory, the Figure 3 class) *)
  let walks = t.tlb.Tlb.walks in
  if t.now <= t.recover_until && walks > t.tlb_walk_seen then
    t.perf.p_tlb_walk_flush <-
      t.perf.p_tlb_walk_flush + (walks - t.tlb_walk_seen);
  t.tlb_walk_seen <- walks

let cycle t = apply t (step t)

let ipc t =
  if t.perf.p_cycles = 0 then 0.0
  else float_of_int t.perf.p_instrs /. float_of_int t.perf.p_cycles

let set_tracer t tr = t.tracer <- tr

let commit_width_names = Array.init 9 (Printf.sprintf "commit.width_%d")
let walk_depth_names = Array.init 5 (Printf.sprintf "rob.walk_depth_b%d")

(* The one place that names counters: the core's own [perf] fields and
   the stats the BPU, LSU, TLB and caches keep, as (name, value) pairs
   in a fixed order.  This is the interchange format consumed by
   [Perf.Topdown], [Archdb.record_counters], the fuzzer's coverage map
   and the CLI/bench reporters. *)
let counter_snapshot t : (string * int) list =
  let p = t.perf and b = t.bpu and l = t.lsu and tlb = t.tlb in
  let named names a =
    List.init (Array.length a) (fun i -> (names.(i), a.(i)))
  in
  let cache prefix c =
    let s = Softmem.Cache.stats c in
    [
      (prefix ^ ".accesses", s.Softmem.Cache.accesses);
      (prefix ^ ".misses", s.Softmem.Cache.misses);
      (prefix ^ ".refills", s.Softmem.Cache.refills);
      (prefix ^ ".probes", s.Softmem.Cache.probes);
      (prefix ^ ".evictions", s.Softmem.Cache.evictions);
      (prefix ^ ".mshr_saturated", s.Softmem.Cache.mshr_saturated);
    ]
  in
  List.concat
    [
      List.map
        (fun bk ->
          (Perf.Topdown.counter_name bk, p.p_td.(Perf.Topdown.index bk)))
        Perf.Topdown.all;
      [
        ("stall.dispatch.rob_full", p.p_stall_rob_full);
        ("stall.dispatch.iq_full", p.p_stall_iq_full);
        ("stall.dispatch.lq_full", p.p_stall_lq_full);
        ("stall.dispatch.sq_full", p.p_stall_sq_full);
        ("stall.dispatch.freelist_int", p.p_stall_freelist_int);
        ("stall.dispatch.freelist_fp", p.p_stall_freelist_fp);
        ("stall.commit.sb_full", p.p_stall_sb_full);
        ("frontend.fetch_bubbles", p.p_fetch_bubbles);
        ("frontend.icache_misses", p.p_icache_misses);
        ("rob.walked_uops", p.p_walked_uops);
      ];
      named commit_width_names p.p_commit_width;
      named walk_depth_names p.p_walk_depth;
      [
        ("flush.mispredict", p.p_flush_misp);
        ("flush.trap", p.p_flush_trap);
        ("flush.serialize", p.p_flush_serial);
        ("commit.sc_success", p.p_sc_success);
        ("commit.sc_failures", p.p_sc_failures);
        ("tlb.walk_during_flush", p.p_tlb_walk_flush);
        ("core.cycles", p.p_cycles);
        ("core.instrs", p.p_instrs);
        ("core.uops", p.p_uops);
        ("core.fused", p.p_fused);
        ("core.moves_eliminated", p.p_moves_eliminated);
        ("core.loads", p.p_loads);
        ("core.stores", p.p_stores);
        ("core.traps", p.p_traps);
        ("core.interrupts", p.p_interrupts);
        ("core.flushes", p.p_flushes);
        ("core.dispatched", p.p_dispatched);
        ("core.hi_prio", p.p_hi_prio);
        ("bpu.lookups", b.Bpu.lookups);
        ("bpu.cond_branches", b.Bpu.cond_branches);
        ("bpu.mispredicts", b.Bpu.mispredicts);
        ("bpu.misp_branch", b.Bpu.misp_branch);
        ("bpu.misp_jal", b.Bpu.misp_jal);
        ("bpu.misp_jalr", b.Bpu.misp_jalr);
        ("bpu.misp_ret", b.Bpu.misp_ret);
        ("bpu.tage_provided", b.Bpu.tage_provided);
        ("bpu.bimodal_provided", b.Bpu.bimodal_provided);
        ("bpu.ras_pushes", b.Bpu.ras_pushes);
        ("bpu.ras_pops", b.Bpu.ras_pops);
        ("bpu.ras_overflows", b.Bpu.ras_overflows);
        ("bpu.ras_underflows", b.Bpu.ras_underflows);
        ("lsu.forward_hits", l.Lsu.forwards);
        ("lsu.forward_blocked", l.Lsu.blocked_loads);
        ("lsu.forward_misses", l.Lsu.forward_misses);
        ("lsu.sb_drains", l.Lsu.drains);
        ("tlb.walks", tlb.Tlb.walks);
        ("tlb.itlb_misses", tlb.Tlb.itlb_misses);
        ("tlb.dtlb_misses", tlb.Tlb.dtlb_misses);
        ("tlb.stlb_hits", tlb.Tlb.stlb_hits);
        ("tlb.cached_fault_hits", tlb.Tlb.cached_fault_hits);
      ];
      cache "l1i" t.l1i;
      cache "l1d" t.l1d;
    ]

(* Where is commit stuck?  Snapshot of the retirement bottleneck for
   the hang watchdog's failure report.  Occupancies come from the same
   O(1) accessors dispatch admission reads, so the two can never
   disagree. *)
let stall_site t : string =
  let occupancy =
    Printf.sprintf "rob=%d/%d iq=%d lq=%d sq=%d sb=%d/%d%s"
      (Rob.count t.rob) t.cfg.Config.rob_size
      (Array.fold_left (fun a iq -> a + Iq.occupancy iq) 0 t.iqs)
      (Lsu.lq_occupancy t.lsu) (Lsu.sq_occupancy t.lsu)
      (Lsu.sb_occupancy t.lsu)
      t.cfg.Config.store_buffer_size
      (if t.halted then " halted" else "")
  in
  if Rob.is_empty t.rob then
    Printf.sprintf "rob empty, fetch_pc=0x%Lx; %s" (fetch_pc t.ring) occupancy
  else
    let u = t.rob.Rob.uops in
    let seq = Rob.head_seq t.rob in
    let r = Uop.row u seq in
    let state =
      let s = Uop.get u r Uop.i_state in
      if s = Uop.waiting then "waiting"
      else if s = Uop.issued then "issued"
      else "completed"
    in
    Printf.sprintf "rob head seq=%d pc=0x%Lx [%s] %s; %s" seq
      (Uop.get64 u r Uop.w_pc)
      (Insn.show (Uop.insn u r)) state occupancy
