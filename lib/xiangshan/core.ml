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

type fetch_item = {
  fi_pc : int64;
  fi_insn : Insn.t;
  fi_pred_next : int64;
  fi_fault : (Trap.exc * int64) option;
  mutable fi_fetched_at : int; (* cycle the item entered the fetch queue *)
}

type fetch_bundle = { fb_ready_at : int; fb_items : fetch_item list }

(* What a free fetch-queue or plan slot holds (never written). *)
let no_item =
  {
    fi_pc = 0L;
    fi_insn = Insn.Illegal 0l;
    fi_pred_next = 0L;
    fi_fault = None;
    fi_fetched_at = 0;
  }

(* The fetch queue: a ring of [fetch_buffer] slots, [fq_len] items from
   [fq_head] in fetch order; free slots hold [no_item].  Fetch never
   starts a bundle without headroom for all of it, so the ring cannot
   overflow. *)
type fetch_queue = {
  fq_items : fetch_item array;
  mutable fq_head : int;
  mutable fq_len : int;
}

let fq_get q i = q.fq_items.((q.fq_head + i) mod Array.length q.fq_items)

let fq_push q it =
  assert (q.fq_len < Array.length q.fq_items);
  q.fq_items.((q.fq_head + q.fq_len) mod Array.length q.fq_items) <- it;
  q.fq_len <- q.fq_len + 1

let fq_pop q =
  q.fq_items.(q.fq_head) <- no_item;
  q.fq_head <- (q.fq_head + 1) mod Array.length q.fq_items;
  q.fq_len <- q.fq_len - 1

let fq_clear q =
  Array.fill q.fq_items 0 (Array.length q.fq_items) no_item;
  q.fq_head <- 0;
  q.fq_len <- 0

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
  mutable pl_uop : Uop.t;
      (* built for an accepted slot, seq pre-assigned from the snapshot;
         psrc holds architectural numbers until apply renames them *)
  mutable pl_item : fetch_item; (* head fetch-queue item consumed *)
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
                pl_uop = Uop.sentinel;
                pl_item = no_item;
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
  }

(* Dense Perf_counter handles, resolved once at [create] so the
   per-cycle hot paths are plain array stores. *)
type ids = {
  i_td : Perf.Perf_counter.id array; (* indexed by Perf.Topdown.index *)
  i_disp_rob_full : Perf.Perf_counter.id;
  i_disp_iq_full : Perf.Perf_counter.id;
  i_disp_lq_full : Perf.Perf_counter.id;
  i_disp_sq_full : Perf.Perf_counter.id;
  i_disp_freelist_int : Perf.Perf_counter.id;
  i_disp_freelist_fp : Perf.Perf_counter.id;
  i_commit_sb_full : Perf.Perf_counter.id;
  i_fetch_bubble : Perf.Perf_counter.id;
  i_icache_miss : Perf.Perf_counter.id;
  i_rob_walk : Perf.Perf_counter.id;
  i_commit_w : Perf.Perf_counter.id array; (* commit width 0..8+ *)
  (* edge-style coverage probes (fed to the fuzzer's coverage map) *)
  i_walk_depth : Perf.Perf_counter.id array; (* per-flush ROB walk depth, log2 buckets *)
  i_flush_misp : Perf.Perf_counter.id;
  i_flush_trap : Perf.Perf_counter.id;
  i_flush_serial : Perf.Perf_counter.id;
  i_sc_success : Perf.Perf_counter.id;
  i_sc_fail : Perf.Perf_counter.id;
  i_tlb_walk_flush : Perf.Perf_counter.id;
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
  lsu : Lsu.t;
  probes : Probe.sinks;
  perf : perf;
  ctrs : Perf.Perf_counter.t; (* named counter registry (observation only) *)
  ids : ids;
  def_table : int array; (* arch int reg -> seq of last producer *)
  mutable now : int;
  mutable seq : int; (* next uop sequence number *)
  mutable fetch_pc : int64;
  mutable fetch_stalled : bool;
  mutable inflight : fetch_bundle option;
  fetch_queue : fetch_queue;
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

let make_ids () =
  let ctrs = Perf.Perf_counter.create ~capacity:64 () in
  let reg = Perf.Perf_counter.register ctrs in
  (* bind in sequence: record-field expressions evaluate in an
     unspecified order, but the registration order is what to_alist
     (and every counter dump) presents *)
  let i_td =
    Array.of_list
      (List.map (fun b -> reg (Perf.Topdown.counter_name b)) Perf.Topdown.all)
  in
  let i_disp_rob_full = reg "stall.dispatch.rob_full" in
  let i_disp_iq_full = reg "stall.dispatch.iq_full" in
  let i_disp_lq_full = reg "stall.dispatch.lq_full" in
  let i_disp_sq_full = reg "stall.dispatch.sq_full" in
  let i_disp_freelist_int = reg "stall.dispatch.freelist_int" in
  let i_disp_freelist_fp = reg "stall.dispatch.freelist_fp" in
  let i_commit_sb_full = reg "stall.commit.sb_full" in
  let i_fetch_bubble = reg "frontend.fetch_bubbles" in
  let i_icache_miss = reg "frontend.icache_misses" in
  let i_rob_walk = reg "rob.walked_uops" in
  let i_commit_w =
    Array.init 9 (fun w -> reg (Printf.sprintf "commit.width_%d" w))
  in
  (* edge probes: these exist for microarchitectural *coverage* --
     each is an event class the fuzzer wants to know was reached, not
     a performance account.  Incremented at the effect boundary
     (flush/commit/apply), so they cost nothing on untaken paths. *)
  let i_walk_depth =
    Array.init 5 (fun b -> reg (Printf.sprintf "rob.walk_depth_b%d" b))
  in
  let i_flush_misp = reg "flush.mispredict" in
  let i_flush_trap = reg "flush.trap" in
  let i_flush_serial = reg "flush.serialize" in
  let i_sc_success = reg "commit.sc_success" in
  let i_sc_fail = reg "commit.sc_failures" in
  let i_tlb_walk_flush = reg "tlb.walk_during_flush" in
  ( ctrs,
    {
      i_td;
      i_disp_rob_full;
      i_disp_iq_full;
      i_disp_lq_full;
      i_disp_sq_full;
      i_disp_freelist_int;
      i_disp_freelist_fp;
      i_commit_sb_full;
      i_fetch_bubble;
      i_icache_miss;
      i_rob_walk;
      i_commit_w;
      i_walk_depth;
      i_flush_misp;
      i_flush_trap;
      i_flush_serial;
      i_sc_success;
      i_sc_fail;
      i_tlb_walk_flush;
    } )

let create ?(phase_order = Default_order) (cfg : Config.t) ~hartid
    ~(plat : Platform.t)
    ~(l1i : Softmem.Cache.t) ~(l1d : Softmem.Cache.t)
    ~(ptw_port : Softmem.Cache.t) : t =
  let arch = Arch_state.create ~hartid () in
  arch.Arch_state.csr.Csr.time_source <-
    (fun () -> plat.Platform.clint.Platform.Clint.mtime);
  let ctrs, ids = make_ids () in
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
    rob = Rob.create ~size:cfg.rob_size;
    iqs = Array.of_list (List.map (fun iqc -> Iq.create iqc ~policy:cfg.issue_policy) cfg.iqs);
    lsu = Lsu.create cfg ~dcache:l1d;
    probes = Probe.null_sinks ();
    perf = make_perf ();
    ctrs;
    ids;
    def_table = Array.make 32 (-1);
    now = 0;
    seq = 0;
    fetch_pc = Platform.dram_base;
    fetch_stalled = false;
    inflight = None;
    fetch_queue =
      {
        fq_items = Array.make cfg.fetch_buffer no_item;
        fq_head = 0;
        fq_len = 0;
      };
    plan = make_effects cfg;
    commit_busy_until = 0;
    recover_until = 0;
    recover_misp = false;
    icache_stall_until = 0;
    tracer = None;
    halted = false;
    on_store_drain = (fun _ _ -> ());
    bug_trust_bpu = 0;
    flushed_at = -1;
    tlb_walk_seen = 0;
    phase_order;
  }

let set_phase_order t o = t.phase_order <- o

let set_boot_pc t pc =
  t.fetch_pc <- pc;
  t.arch.Arch_state.pc <- pc

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
  | `Misp -> Perf.Perf_counter.incr t.ctrs t.ids.i_flush_misp
  | `Trap -> Perf.Perf_counter.incr t.ctrs t.ids.i_flush_trap
  | `Serial -> Perf.Perf_counter.incr t.ctrs t.ids.i_flush_serial
  | `Other -> ());
  let squashed = Rob.squash_younger t.rob ~after in
  let depth = List.length squashed in
  Perf.Perf_counter.add t.ctrs t.ids.i_rob_walk depth;
  if depth > 0 then begin
    (* log2 depth buckets: 1, 2-3, 4-7, 8-15, 16+ *)
    let b =
      if depth >= 16 then 4
      else if depth >= 8 then 3
      else if depth >= 4 then 2
      else if depth >= 2 then 1
      else 0
    in
    Perf.Perf_counter.incr t.ctrs t.ids.i_walk_depth.(b)
  end;
  (match t.tracer with
  | Some tr ->
      List.iter
        (fun (u : Uop.t) -> Perf.Pipetrace.on_flush tr ~seq:u.Uop.seq ~now:t.now)
        squashed
  | None -> ());
  List.iter (fun u -> Rename.rollback t.rename u) squashed;
  t.seq <- t.rob.Rob.tail;
  Array.iter Iq.drop_squashed t.iqs;
  Lsu.drop_squashed t.lsu;
  fq_clear t.fetch_queue;
  t.inflight <- None;
  t.fetch_stalled <- false;
  t.fetch_pc <- target;
  (* open a bad-speculation recovery window for top-down attribution;
     a mispredict redirect overrides [recover_misp] at its call site *)
  t.recover_until <- max t.recover_until (t.now + mispredict_penalty);
  t.recover_misp <- false

(* ---------------- fetch ---------------------------------------------- *)

let fetch_block_bytes = 32

let rec enqueue_items t = function
  | [] -> ()
  | it :: rest ->
      it.fi_fetched_at <- t.now;
      fq_push t.fetch_queue it;
      enqueue_items t rest

(* Move a completed bundle's items into the fetch queue. *)
let fetch_complete_now t =
  match t.inflight with
  | Some b when t.now >= b.fb_ready_at ->
      enqueue_items t b.fb_items;
      t.inflight <- None
  | Some _ | None -> ()

(* Start a new fetch bundle at [t.fetch_pc]: translate, probe the
   icache, decode and predict up to fetch_width sequential slots.
   Mutates the TLB, L1I and BPU -- phase 2 only. *)
let fetch_start_bundle t =
  let pc0 = t.fetch_pc in
  match Tlb.translate t.tlb t.arch.Arch_state.csr pc0 Tlb.Fetch with
  | Tlb.Page_fault (exc, tval), lat ->
      t.inflight <-
        Some
          {
            fb_ready_at = t.now + lat + 2;
            fb_items =
              [
                {
                  fi_pc = pc0;
                  fi_insn = Insn.Illegal 0l;
                  fi_pred_next = Int64.add pc0 4L;
                  fi_fault = Some (exc, tval);
                  fi_fetched_at = t.now;
                };
              ];
          };
      t.fetch_stalled <- true
  | Tlb.Translated pa0, tlb_lat ->
      if not (Memory.in_range t.plat.Platform.mem pa0) then begin
        t.inflight <-
          Some
            {
              fb_ready_at = t.now + tlb_lat + 2;
              fb_items =
                [
                  {
                    fi_pc = pc0;
                    fi_insn = Insn.Illegal 0l;
                    fi_pred_next = Int64.add pc0 4L;
                    fi_fault = Some (Trap.Fetch_access, pc0);
                    fi_fetched_at = t.now;
                  };
                ];
            };
        t.fetch_stalled <- true
      end
      else begin
        let icache_lat = Softmem.Cache.fetch t.l1i ~addr:pa0 in
        if icache_lat > t.l1i.Softmem.Cache.hit_latency then begin
          Perf.Perf_counter.incr t.ctrs t.ids.i_icache_miss;
          t.icache_stall_until <-
            max t.icache_stall_until (t.now + tlb_lat + icache_lat)
        end;
        let items = ref [] in
        let next_fetch = ref (Int64.add pc0 (Int64.of_int 4)) in
        let stop = ref false in
        let i = ref 0 in
        let block = Int64.div pc0 (Int64.of_int fetch_block_bytes) in
        while (not !stop) && !i < t.cfg.fetch_width do
          (* past the first slot the pc is the previous slot's
             not-taken prediction: reuse its box (one boxed pc per
             in-flight instruction in a LightSSS image, not two) *)
          let pc = match !items with it :: _ -> it.fi_pred_next | [] -> pc0 in
          if Int64.div pc (Int64.of_int fetch_block_bytes) <> block then
            stop := true
          else begin
            let pa = Int64.add pa0 (Int64.of_int (4 * !i)) in
            let word = Memory.read_u32 t.plat.Platform.mem pa in
            let insn = Riscv.Decode.decode_int word in
            let pred = Bpu.predict t.bpu ~pc ~insn in
            let pred_next =
              if pred.Bpu.taken then pred.Bpu.target else Int64.add pc 4L
            in
            items :=
              {
                fi_pc = pc;
                fi_insn = insn;
                fi_pred_next = pred_next;
                fi_fault = None;
                fi_fetched_at = t.now;
              }
              :: !items;
            next_fetch := pred_next;
            if pred.Bpu.taken then stop := true;
            incr i
          end
        done;
        t.fetch_pc <- !next_fetch;
        t.inflight <-
          Some
            {
              fb_ready_at = t.now + tlb_lat + icache_lat + 2;
              fb_items = List.rev !items;
            }
      end

(* Live fetch evaluation (the pre-refactor do_fetch).  Used when a
   flush in this cycle invalidated the phase-1 fetch plan: the
   redirected target starts fetching in the same cycle, exactly as
   the ordered model did. *)
let fetch_live t =
  fetch_complete_now t;
  if
    t.inflight = None
    && (not t.fetch_stalled)
    && t.fetch_queue.fq_len + t.cfg.fetch_width <= t.cfg.fetch_buffer
  then fetch_start_bundle t

(* Phase 1: decide bundle completion and new-bundle start from the
   snapshot.  Headroom counts the start-of-cycle queue plus the items
   a completion would add -- NOT the slots dispatch will free this
   cycle (conservative snapshot claim; see the arbitration table). *)
let step_fetch t =
  let v_now = t.now + 1 in
  let fe_complete =
    match t.inflight with Some b -> v_now >= b.fb_ready_at | None -> false
  in
  let qlen =
    t.fetch_queue.fq_len
    + (match t.inflight with
      | Some b when v_now >= b.fb_ready_at -> List.length b.fb_items
      | _ -> 0)
  in
  let e = t.plan.ef_fetch in
  e.fe_complete <- fe_complete;
  e.fe_start <-
    (t.inflight = None || fe_complete)
    && (not t.fetch_stalled)
    && qlen + t.cfg.fetch_width <= t.cfg.fetch_buffer

let apply_fetch t (eff : fetch_eff) =
  if t.flushed_at = t.now then
    (* the plan predates a redirect: re-evaluate live so the new
       target starts fetching this cycle (a mispredict redirect left
       a refill bubble in [inflight], which blocks the new bundle) *)
    fetch_live t
  else begin
    if eff.fe_complete then fetch_complete_now t;
    if eff.fe_start && t.inflight = None && not t.fetch_stalled then
      fetch_start_bundle t
  end

(* ---------------- dispatch (decode + rename) ------------------------- *)

(* PUBS: mark the producer slice of an unconfident branch as high
   priority, walking the define table transitively from the
   architectural integer source [r]. *)
let rec mark_slice t ~depth r =
  if depth > 0 && r > 0 then
    let seq = t.def_table.(r) in
    if seq >= 0 then
      match Rob.get t.rob seq with
      | Some p when p.Uop.state <> Uop.Completed && not p.Uop.priority ->
          p.Uop.priority <- true;
          t.perf.p_hi_prio <- t.perf.p_hi_prio + 1;
          let srcs = Fusion.arch_srcs p in
          Array.iteri
            (fun i r ->
              if not p.Uop.psrc_fp.(i) then mark_slice t ~depth:(depth - 1) r)
            srcs
      | Some _ | None -> ()

(* Is this instruction a move-eliminable register copy? *)
let move_eliminable t (it : fetch_item) ~fused =
  t.cfg.move_elim && (not fused) && it.fi_fault = None
  &&
  match it.fi_insn with
  | Op_imm (ADD, rd, rs, 0L) when rd <> 0 && rs <> 0 -> true
  | _ -> false

(* Phase 1: plan this cycle's dispatch group against the snapshot, into
   the dispatch plan buffer.  Structural claims (ROB/IQ/LQ/SQ slots,
   free physical registers) are threaded through the plan so the group
   can never over-subscribe the start-of-cycle occupancies; slots freed
   by commit or issue in the same cycle become usable next cycle.  The
   fetch queue is walked by position (it is unmodified during phase 1),
   and each slot is classified from its instruction first: a uop is
   built only for a slot the group accepts. *)
let step_dispatch t =
  let d = t.plan.ef_dispatch in
  d.dp_n <- 0;
  d.dp_stall <- None;
  let fq = t.fetch_queue in
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
  while !budget > 0 && Option.is_none d.dp_stall && !pos < fq.fq_len do
    let it = fq_get fq !pos in
    if !rob_free <= 0 then d.dp_stall <- Some Rob_full
    else begin
      let insn = it.fi_insn in
      (* fusion candidate: the next queued instruction, only if it is
         the sequential successor *)
      let fusion =
        if
          t.cfg.fusion && !budget >= 2
          && !pos + 1 < fq.fq_len
          && it.fi_pred_next = Int64.add it.fi_pc 4L
          && (fq_get fq (!pos + 1)).fi_pc = Int64.add it.fi_pc 4L
        then Fusion.try_fuse insn (fq_get fq (!pos + 1)).fi_insn
        else None
      in
      let fused = Option.is_some fusion in
      let second = if fused then fq_get fq (!pos + 1) else no_item in
      let faulted = Option.is_some it.fi_fault in
      let cls, where = Uop.classify insn in
      let is_load = Uop.uses_lq insn where and is_store = Uop.uses_sq insn in
      (* a fused pair writes its first instruction's destination; an
         x0 write needs no register *)
      let int_rd = match Insn.int_rd insn with 0 -> -1 | r -> r in
      let fp_rd = Insn.fp_rd insn in
      let queued = where = Uop.In_iq && not faulted in
      let iq_target =
        if queued then begin
          (* least-occupied accepting IQ, snapshot + planned *)
          let best = ref (-1) in
          for i = 0 to Array.length t.iqs - 1 do
            let iq = t.iqs.(i) in
            if
              Iq.accepts iq cls
              && iq_occ.(i) < Iq.capacity iq
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
      let int_free_ok = int_rd < 0 || !int_free > 0 in
      let fp_free_ok = fp_rd < 0 || !fp_free > 0 in
      (* attribute a stall to the first scarce resource *)
      if not iq_ok then d.dp_stall <- Some Iq_full
      else if not lsu_ok then
        d.dp_stall <-
          (if is_load && !lq_free <= 0 then Some Lq_full else Some Sq_full)
      else if not int_free_ok then d.dp_stall <- Some Freelist_int
      else if not fp_free_ok then d.dp_stall <- Some Freelist_fp
      else begin
        let eliminated = move_eliminable t it ~fused in
        (* thread the claims the group has now taken *)
        decr rob_free;
        if (not faulted) && not eliminated then begin
          if iq_target >= 0 then iq_occ.(iq_target) <- iq_occ.(iq_target) + 1;
          if is_load then decr lq_free;
          if is_store then decr sq_free
        end;
        if not eliminated then begin
          if int_rd >= 0 then decr int_free;
          if fp_rd >= 0 then decr fp_free
        end;
        let u =
          Uop.make ~seq:!seq ~pc:it.fi_pc ~insn
            ~second:(if fused then Some second.fi_insn else None)
            ~fusion
            ~pred_next:(if fused then second.fi_pred_next else it.fi_pred_next)
        in
        u.Uop.exc <- it.fi_fault;
        let srcs = Fusion.arch_srcs u in
        u.Uop.psrc <- srcs;
        u.Uop.psrc_fp <- Fusion.src_kinds insn (Array.length srcs);
        if int_rd >= 0 then u.Uop.arch_rd <- int_rd
        else if fp_rd >= 0 then begin
          u.Uop.arch_rd <- fp_rd;
          u.Uop.rd_is_fp <- true
        end;
        let p = d.dp_plans.(d.dp_n) in
        p.pl_uop <- u;
        p.pl_item <- it;
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
  if t.flushed_at <> t.now then begin
    let fq = t.fetch_queue in
    let aborted = ref false and i = ref 0 in
    while (not !aborted) && !i < eff.dp_n do
      let p = eff.dp_plans.(!i) in
      incr i;
      let u = p.pl_uop and it = p.pl_item in
      let rd = u.Uop.arch_rd and rd_fp = u.Uop.rd_is_fp in
      if
        Rob.is_full t.rob
        || u.Uop.seq <> t.seq
        (* the planned head item must still be queued (physical
           identity): a boundary-hook flush cleared the fetch queue,
           even if it left seq/ROB looking untouched *)
        || fq.fq_len = 0
        || fq_get fq 0 != it
        || rd >= 0 && (not rd_fp) && (not p.pl_eliminated)
           && not (Rename.can_alloc t.rename ~is_fp:false)
        || (rd >= 0 && rd_fp && not (Rename.can_alloc t.rename ~is_fp:true))
      then aborted := true
      else begin
        (* consume the planned queue items *)
        fq_pop fq;
        if p.pl_fused then fq_pop fq;
        (* rename sources in place: the planner left architectural
           numbers in psrc *)
        let psrc = u.Uop.psrc in
        for j = 0 to Array.length psrc - 1 do
          psrc.(j) <- Rename.lookup t.rename ~is_fp:u.Uop.psrc_fp.(j) psrc.(j)
        done;
        (match (p.pl_eliminated, it.fi_insn) with
        | true, Op_imm (ADD, rd, rs, _) ->
            let prd, old_prd = Rename.alias t.rename ~arch_rd:rd ~arch_rs:rs in
            u.Uop.prd <- prd;
            u.Uop.old_prd <- old_prd;
            u.Uop.state <- Uop.Completed;
            u.Uop.done_at <- t.now;
            u.Uop.eliminated <- true;
            t.perf.p_moves_eliminated <- t.perf.p_moves_eliminated + 1;
            t.def_table.(rd) <- u.Uop.seq
        | _ ->
            if rd >= 0 then begin
              let prd, old_prd =
                Rename.alloc t.rename ~is_fp:rd_fp ~arch:rd ~now:t.now
              in
              u.Uop.prd <- prd;
              u.Uop.old_prd <- old_prd;
              if not rd_fp then t.def_table.(rd) <- u.Uop.seq
            end);
        (* allocate in ROB + queues *)
        t.seq <- t.seq + 1;
        Rob.push t.rob u;
        if p.pl_fused then t.perf.p_fused <- t.perf.p_fused + 1;
        t.perf.p_dispatched <- t.perf.p_dispatched + 1;
        if it.fi_fault = None && not p.pl_eliminated then begin
          if p.pl_iq >= 0 then Iq.insert t.iqs.(p.pl_iq) u;
          if Uop.is_load u then Lsu.insert_load t.lsu u;
          if Uop.is_store u then Lsu.insert_store t.lsu u
        end
        else if it.fi_fault <> None then begin
          (* faulting fetch: deliver the exception at commit *)
          u.Uop.state <- Uop.Completed;
          u.Uop.done_at <- t.now
        end;
        (* PUBS: mark unconfident branch slices *)
        (if t.cfg.issue_policy = Config.Pubs then
           match it.fi_insn with
           | Branch (_, rs1, rs2, _) when Bpu.unconfident t.bpu ~pc:it.fi_pc ->
               u.Uop.priority <- true;
               t.perf.p_hi_prio <- t.perf.p_hi_prio + 1;
               mark_slice t ~depth:2 rs1;
               mark_slice t ~depth:2 rs2
           | _ -> ());
        match t.tracer with
        | Some tr ->
            Perf.Pipetrace.on_dispatch tr ~seq:u.Uop.seq ~pc:u.Uop.pc
              ~label:(Insn.show it.fi_insn) ~fetched_at:it.fi_fetched_at
              ~now:t.now;
            (* eliminated moves and faulting fetches never issue;
               close their execute window at dispatch *)
            if p.pl_eliminated || it.fi_fault <> None then begin
              Perf.Pipetrace.on_issue tr ~seq:u.Uop.seq ~now:t.now;
              Perf.Pipetrace.on_complete tr ~seq:u.Uop.seq ~at:u.Uop.done_at
            end
        | None -> ()
      end
    done;
    match eff.dp_stall with
    | Some Rob_full -> Perf.Perf_counter.incr t.ctrs t.ids.i_disp_rob_full
    | Some Iq_full -> Perf.Perf_counter.incr t.ctrs t.ids.i_disp_iq_full
    | Some Lq_full -> Perf.Perf_counter.incr t.ctrs t.ids.i_disp_lq_full
    | Some Sq_full -> Perf.Perf_counter.incr t.ctrs t.ids.i_disp_sq_full
    | Some Freelist_int ->
        Perf.Perf_counter.incr t.ctrs t.ids.i_disp_freelist_int
    | Some Freelist_fp -> Perf.Perf_counter.incr t.ctrs t.ids.i_disp_freelist_fp
    | None -> ()
  end;
  for i = 0 to eff.dp_n - 1 do
    let p = eff.dp_plans.(i) in
    p.pl_uop <- Uop.sentinel;
    p.pl_item <- no_item
  done;
  eff.dp_n <- 0

(* ---------------- issue / execute ------------------------------------ *)

let src_values t (u : Uop.t) : int64 array =
  let psrc = u.Uop.psrc in
  let v = Array.make (Array.length psrc) 0L in
  for i = 0 to Array.length psrc - 1 do
    v.(i) <- Rename.value t.rename ~is_fp:u.Uop.psrc_fp.(i) ~prd:psrc.(i)
  done;
  v

let complete t (u : Uop.t) ~at =
  u.Uop.state <- Uop.Completed;
  u.Uop.done_at <- at;
  (match t.tracer with
  | Some tr -> Perf.Pipetrace.on_complete tr ~seq:u.Uop.seq ~at
  | None -> ());
  if u.Uop.prd >= 0 then
    Rename.set_result t.rename ~is_fp:u.Uop.rd_is_fp ~prd:u.Uop.prd
      ~value:u.Uop.result ~ready_at:at

(* Returns true if the uop issued. *)
let issue_uop t (u : Uop.t) : bool =
  let srcs = src_values t u in
  match u.Uop.exec_class with
  | Config.LOAD -> (
      let vaddr =
        match u.Uop.insn with
        | Load (_, _, _, imm) | Fld (_, _, imm) -> Int64.add srcs.(0) imm
        | _ -> srcs.(0)
      in
      let size =
        match u.Uop.insn with
        | Load (op, _, _, _) -> Iss.Alu.load_width op
        | Fld _ -> 8
        | _ -> 8
      in
      u.Uop.vaddr <- vaddr;
      u.Uop.msize <- size;
      if Int64.rem vaddr (Int64.of_int size) <> 0L then begin
        u.Uop.exc <- Some (Trap.Load_misaligned, vaddr);
        u.Uop.state <- Uop.Completed;
        u.Uop.done_at <- t.now + 1;
        true
      end
      else begin
        match Tlb.translate t.tlb t.arch.Arch_state.csr vaddr Tlb.Load with
        | Tlb.Page_fault (exc, tval), lat ->
            u.Uop.exc <- Some (exc, tval);
            u.Uop.state <- Uop.Completed;
            u.Uop.done_at <- t.now + 1 + lat;
            true
        | Tlb.Translated pa, tlb_lat ->
            u.Uop.paddr <- pa;
            if Platform.is_mmio t.plat pa then begin
              (* MMIO loads execute at the ROB head *)
              u.Uop.mmio <- true;
              u.Uop.state <- Uop.Issued;
              true
            end
            else begin
              match Lsu.forward t.lsu ~seq:u.Uop.seq ~paddr:pa ~size with
              | Lsu.Blocked -> false (* retry next cycle *)
              | Lsu.Forward raw ->
                  let v =
                    match u.Uop.insn with
                    | Load (op, _, _, _) -> Iss.Alu.extend_load op raw
                    | _ -> raw
                  in
                  u.Uop.result <- v;
                  u.Uop.load_value <- raw;
                  u.Uop.mem_cycle <- t.now;
                  complete t u ~at:(t.now + 2 + tlb_lat);
                  t.perf.p_loads <- t.perf.p_loads + 1;
                  true
              | Lsu.No_match ->
                  let raw, lat = Softmem.Cache.read t.l1d ~addr:pa ~size in
                  let v =
                    match u.Uop.insn with
                    | Load (op, _, _, _) -> Iss.Alu.extend_load op raw
                    | _ -> raw
                  in
                  u.Uop.result <- v;
                  u.Uop.load_value <- raw;
                  u.Uop.mem_cycle <- t.now;
                  complete t u ~at:(t.now + 1 + tlb_lat + lat);
                  t.perf.p_loads <- t.perf.p_loads + 1;
                  true
            end
      end)
  | Config.STORE -> (
      let vaddr, data, size =
        match u.Uop.insn with
        | Store (op, _, _, imm) ->
            (Int64.add srcs.(0) imm, srcs.(1), Iss.Alu.store_width op)
        | Fsd (_, _, imm) -> (Int64.add srcs.(0) imm, srcs.(1), 8)
        | _ -> (srcs.(0), srcs.(1), 8)
      in
      u.Uop.vaddr <- vaddr;
      u.Uop.msize <- size;
      u.Uop.sdata <-
        (if size >= 8 then data
         else Int64.logand data (Int64.sub (Int64.shift_left 1L (8 * size)) 1L));
      if Int64.rem vaddr (Int64.of_int size) <> 0L then begin
        u.Uop.exc <- Some (Trap.Store_misaligned, vaddr);
        u.Uop.state <- Uop.Completed;
        u.Uop.done_at <- t.now + 1;
        true
      end
      else begin
        match Tlb.translate t.tlb t.arch.Arch_state.csr vaddr Tlb.Store with
        | Tlb.Page_fault (exc, tval), lat ->
            u.Uop.exc <- Some (exc, tval);
            u.Uop.state <- Uop.Completed;
            u.Uop.done_at <- t.now + 1 + lat;
            true
        | Tlb.Translated pa, tlb_lat ->
            u.Uop.paddr <- pa;
            u.Uop.mmio <- Platform.is_mmio t.plat pa;
            u.Uop.addr_ready <- true;
            u.Uop.state <- Uop.Completed;
            u.Uop.done_at <- t.now + 1 + tlb_lat;
            t.perf.p_stores <- t.perf.p_stores + 1;
            true
      end)
  | Config.ALU | Config.MUL | Config.DIV | Config.JUMP_CSR | Config.FMAC
  | Config.FMISC ->
      Exec.execute u srcs;
      (* fault injection: swallow the resolved redirect and follow the
         (possibly corrupted) prediction instead *)
      (match u.Uop.insn with
      | (Branch _ | Jal _ | Jalr _)
        when t.bug_trust_bpu > 0 && u.Uop.mispredicted && u.Uop.exc = None ->
          u.Uop.next_pc <- u.Uop.pred_next;
          u.Uop.mispredicted <- false;
          t.bug_trust_bpu <- t.bug_trust_bpu - 1
      | _ -> ());
      let lat = Uop.latency u.Uop.exec_class u.Uop.insn in
      complete t u ~at:(t.now + lat);
      (* resolve control flow *)
      (match u.Uop.insn with
      | Branch _ | Jal _ | Jalr _ ->
          let taken = u.Uop.next_pc <> Int64.add u.Uop.pc (Int64.of_int (4 * u.Uop.n_insns)) in
          Bpu.update t.bpu ~pc:u.Uop.pc ~insn:u.Uop.insn ~taken
            ~target:u.Uop.next_pc ~mispredicted:u.Uop.mispredicted
      | _ -> ());
      true

(* Readiness in the cycle being planned (now + 1, the value [t.now]
   holds when phase 2 applies the plan): register sources plus LSU
   ordering for loads.  Top-level, so passing it to [Iq.plan_issue]
   allocates no closure. *)
let ready_next_cycle t (u : Uop.t) =
  Rename.srcs_ready t.rename u ~now:(t.now + 1)
  && (u.Uop.exec_class <> Config.LOAD
     || Lsu.older_stores_known t.lsu ~seq:u.Uop.seq)

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
  let redirect = ref None in
  for i = 0 to Array.length t.iqs - 1 do
    let iq = t.iqs.(i) in
    for j = 0 to Iq.planned iq - 1 do
      let u = Iq.planned_uop iq j in
      (* revalidate the phase-1 selection: a commit-side flush in this
         cycle squashed it, or a boundary fault hook stole it from the
         queue (Iq.steal_waiting, observable as the O(1) in_iq flag) --
         issuing it anyway would mask the fault *)
      if (not u.Uop.squashed) && u.Uop.state = Uop.Waiting && u.Uop.in_iq then
        if issue_uop t u then begin
          (match t.tracer with
          | Some tr -> Perf.Pipetrace.on_issue tr ~seq:u.Uop.seq ~now:t.now
          | None -> ());
          if u.Uop.state <> Uop.Waiting then Iq.remove iq u;
          if u.Uop.mispredicted && u.Uop.exc = None then
            match !redirect with
            | Some (r : Uop.t) when r.Uop.seq <= u.Uop.seq -> ()
            | Some _ | None -> redirect := Some u
        end
    done;
    Iq.clear_plan iq
  done;
  match !redirect with
  | Some u ->
      (* redirect-vs-commit arbitration: the oldest resolved
         mispredict wins among this cycle's issues; commit already
         applied, so an older trap/serialise flush has squashed the
         issuing uop and suppressed the redirect via revalidation *)
      flush ~cause:`Misp t ~after:u.Uop.seq ~target:u.Uop.next_pc;
      t.recover_misp <- true;
      (* model the resolve + refill bubble *)
      t.inflight <-
        Some { fb_ready_at = t.now + mispredict_penalty; fb_items = [] }
  | None -> ()

(* ---------------- at-commit execution -------------------------------- *)

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

let execute_at_head t (u : Uop.t) : unit =
  let arch = t.arch in
  let csr = arch.Arch_state.csr in
  let rg r = Arch_state.get_reg arch r in
  let finish ?(lat = 1) () =
    complete t u ~at:t.now;
    t.commit_busy_until <- t.now + lat
  in
  let fault exc tval =
    u.Uop.exc <- Some (exc, tval);
    u.Uop.state <- Uop.Completed;
    u.Uop.done_at <- t.now
  in
  let drain_sb () =
    let lat = Lsu.drain_all t.lsu ~now:t.now ~on_drain:(drain_notify t) in
    t.commit_busy_until <- max t.commit_busy_until (t.now + lat)
  in
  match u.Uop.insn with
  | Csr (op, rd, rs1, addr) -> (
      try
        let old_v =
          match op with
          | CSRRW | CSRRWI when rd = 0 -> 0L
          | CSRRW | CSRRS | CSRRC | CSRRWI | CSRRSI | CSRRCI ->
              Csr.read csr addr
        in
        let src =
          match op with
          | CSRRW | CSRRS | CSRRC -> rg rs1
          | CSRRWI | CSRRSI | CSRRCI -> Int64.of_int rs1
        in
        (match op with
        | CSRRW | CSRRWI -> Csr.write csr addr src
        | CSRRS | CSRRSI ->
            if rs1 <> 0 then Csr.write csr addr (Int64.logor old_v src)
        | CSRRC | CSRRCI ->
            if rs1 <> 0 then
              Csr.write csr addr (Int64.logand old_v (Int64.lognot src)));
        u.Uop.result <- old_v;
        u.Uop.csr_read <- Some (addr, old_v);
        finish ()
      with Csr.Illegal_csr _ -> fault Trap.Illegal_instruction 0L)
  | Ecall ->
      let exc =
        match csr.Csr.priv with
        | Csr.U -> Trap.Ecall_from_u
        | Csr.S -> Trap.Ecall_from_s
        | Csr.M -> Trap.Ecall_from_m
      in
      fault exc 0L
  | Ebreak -> fault Trap.Breakpoint u.Uop.pc
  | Mret ->
      if csr.Csr.priv <> Csr.M then fault Trap.Illegal_instruction 0L
      else begin
        u.Uop.next_pc <- Trap.mret csr;
        finish ()
      end
  | Sret ->
      if csr.Csr.priv = Csr.U then fault Trap.Illegal_instruction 0L
      else begin
        u.Uop.next_pc <- Trap.sret csr;
        finish ()
      end
  | Wfi -> finish ()
  | Fence ->
      drain_sb ();
      finish ()
  | Fence_i -> finish ()
  | Sfence_vma (_, _) ->
      if csr.Csr.priv = Csr.U then fault Trap.Illegal_instruction 0L
      else begin
        (* sfence.vma orders preceding stores before subsequent
           implicit page-table reads: drain the store buffer, then
           drop cached translations (including cached faults) *)
        drain_sb ();
        Tlb.flush t.tlb;
        finish ()
      end
  | Illegal _ -> fault Trap.Illegal_instruction 0L
  | Lr (w, _, rs1) -> (
      let size = match w with Width_w -> 4 | Width_d -> 8 in
      let vaddr = rg rs1 in
      if Int64.rem vaddr (Int64.of_int size) <> 0L then
        fault Trap.Load_misaligned vaddr
      else
        match Tlb.translate t.tlb csr vaddr Tlb.Load with
        | Tlb.Page_fault (exc, tval), _ -> fault exc tval
        | Tlb.Translated pa, _ ->
            if Platform.is_mmio t.plat pa then fault Trap.Load_access vaddr
            else begin
              let raw, lat = Softmem.Cache.read t.l1d ~addr:pa ~size in
              u.Uop.result <-
                (match w with
                | Width_w -> Iss.Alu.sext32 raw
                | Width_d -> raw);
              u.Uop.load_value <- raw;
              u.Uop.mem_cycle <- t.now;
              u.Uop.vaddr <- vaddr;
              u.Uop.paddr <- pa;
              u.Uop.msize <- size;
              Lsu.set_reservation t.lsu ~paddr:pa ~now:t.now;
              finish ~lat ()
            end)
  | Sc (w, _, rs1, rs2) -> (
      let size = match w with Width_w -> 4 | Width_d -> 8 in
      let vaddr = rg rs1 in
      if Int64.rem vaddr (Int64.of_int size) <> 0L then
        fault Trap.Store_misaligned vaddr
      else
        match Tlb.translate t.tlb csr vaddr Tlb.Store with
        | Tlb.Page_fault (exc, tval), _ -> fault exc tval
        | Tlb.Translated pa, _ ->
            let ok = Lsu.reservation_valid t.lsu ~paddr:pa ~now:t.now in
            Lsu.clear_reservation t.lsu;
            u.Uop.vaddr <- vaddr;
            u.Uop.paddr <- pa;
            u.Uop.msize <- size;
            if ok then begin
              drain_sb ();
              let lat = Softmem.Cache.write t.l1d ~addr:pa ~size (rg rs2) in
              drain_notify t pa size;
              u.Uop.sdata <- rg rs2;
              u.Uop.addr_ready <- true;
              u.Uop.result <- 0L;
              finish ~lat ()
            end
            else begin
              u.Uop.result <- 1L;
              u.Uop.sc_failed <- true;
              finish ()
            end)
  | Amo (op, w, _, rs1, rs2) -> (
      let size = match w with Width_w -> 4 | Width_d -> 8 in
      let vaddr = rg rs1 in
      if Int64.rem vaddr (Int64.of_int size) <> 0L then
        fault Trap.Store_misaligned vaddr
      else
        match Tlb.translate t.tlb csr vaddr Tlb.Store with
        | Tlb.Page_fault (exc, tval), _ -> fault exc tval
        | Tlb.Translated pa, _ ->
            if Platform.is_mmio t.plat pa then fault Trap.Store_access vaddr
            else begin
              drain_sb ();
              let raw, rlat = Softmem.Cache.read t.l1d ~addr:pa ~size in
              let old_v =
                match w with
                | Width_w -> Iss.Alu.sext32 raw
                | Width_d -> raw
              in
              let new_v = Iss.Alu.eval_amo op w old_v (rg rs2) in
              let wlat = Softmem.Cache.write t.l1d ~addr:pa ~size new_v in
              drain_notify t pa size;
              u.Uop.result <- old_v;
              u.Uop.load_value <- raw;
              u.Uop.mem_cycle <- t.now;
              u.Uop.sdata <- new_v;
              u.Uop.vaddr <- vaddr;
              u.Uop.paddr <- pa;
              u.Uop.msize <- size;
              u.Uop.addr_ready <- true;
              finish ~lat:(rlat + wlat) ()
            end)
  | Load (lop, _, rs1, imm) ->
      (* MMIO load discovered at issue; strongly ordered *)
      assert u.Uop.mmio;
      ignore rs1;
      ignore imm;
      let drained = Lsu.drain_all t.lsu ~now:t.now ~on_drain:(drain_notify t) in
      (match Platform.read t.plat ~addr:u.Uop.paddr ~size:u.Uop.msize with
      | raw ->
          u.Uop.result <- Iss.Alu.extend_load lop raw;
          u.Uop.load_value <- raw;
          u.Uop.mem_cycle <- t.now;
          finish ~lat:(20 + drained) ()
      | exception Platform.Bus_fault _ -> fault Trap.Load_access u.Uop.vaddr)
  | Fld (_, _, _) ->
      assert u.Uop.mmio;
      fault Trap.Load_access u.Uop.vaddr
  | Lui _ | Auipc _ | Jal _ | Jalr _ | Branch _ | Store _ | Fsd _
  | Op_imm _ | Op_imm_w _ | Op _ | Op_w _ | Mul _ | Mul_w _ | Fp_rrr _
  | Fp_fused _ | Fp_sign _ | Fp_minmax _ | Fp_cmp _ | Fsqrt_d _
  | Fcvt_d_l _ | Fcvt_d_lu _ | Fcvt_d_w _ | Fcvt_l_d _ | Fcvt_lu_d _
  | Fcvt_w_d _ | Fmv_x_d _ | Fmv_d_x _ | Fclass_d _ ->
      assert false

(* ---------------- commit ---------------------------------------------- *)

exception Stop_commit

let emit_probe t (u : Uop.t) ~trap ~interrupt =
  (match u.Uop.insn with
  | Insn.Sc _ when trap = None && interrupt = None ->
      Perf.Perf_counter.incr t.ctrs
        (if u.Uop.sc_failed then t.ids.i_sc_fail else t.ids.i_sc_success)
  | _ -> ());
  let load =
    if
      (Uop.is_load u || Insn.is_amo u.Uop.insn)
      && trap = None && u.Uop.exc = None
      &&
      match u.Uop.insn with Sc _ -> false | _ -> true
    then
      Some
        {
          Probe.m_paddr = u.Uop.paddr;
          m_size = u.Uop.msize;
          m_value = u.Uop.load_value;
          m_cycle = u.Uop.mem_cycle;
        }
    else None
  in
  let store =
    if Uop.is_store u && u.Uop.exc = None && not u.Uop.sc_failed then
      Some
        {
          Probe.m_paddr = u.Uop.paddr;
          m_size = u.Uop.msize;
          m_value = u.Uop.sdata;
          m_cycle = u.Uop.mem_cycle;
        }
    else None
  in
  t.probes.Probe.on_commit
    {
      Probe.p_hartid = t.hartid;
      p_cycle = t.now;
      p_pc = u.Uop.pc;
      p_insn = u.Uop.insn;
      p_second = u.Uop.second;
      p_next_pc = u.Uop.next_pc;
      p_trap = trap;
      p_interrupt = interrupt;
      p_load = load;
      p_store = store;
      p_sc_failed = u.Uop.sc_failed;
      p_csr_read = u.Uop.csr_read;
      p_mmio = u.Uop.mmio;
      p_instret = t.arch.Arch_state.csr.Csr.reg_minstret;
    }

let nop_uop t =
  Uop.make ~seq:(-1) ~pc:t.arch.Arch_state.pc ~insn:(Insn.Op_imm (ADD, 0, 0, 0L))
    ~second:None ~fusion:None ~pred_next:t.arch.Arch_state.pc

(* Phase 1: sample the interrupt lines the commit stage will observe.
   The CLINT is SoC-shared mutable state; snapshotting the two wires
   here keeps the retire walk (inherently sequential, every retired
   uop mutates architectural state) deterministic regardless of when
   other units evaluate. *)
let step_commit t =
  let e = t.plan.ef_commit in
  e.ce_mtip <- Platform.Clint.mtip t.plat.Platform.clint t.hartid;
  e.ce_msip <- Platform.Clint.msip t.plat.Platform.clint t.hartid

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
        let u = nop_uop t in
        let target = Trap.take_interrupt csr irq ~epc in
        t.arch.Arch_state.pc <- target;
        t.perf.p_interrupts <- t.perf.p_interrupts + 1;
        u.Uop.next_pc <- target;
        emit_probe t u ~trap:None ~interrupt:(Some irq);
        flush ~cause:`Trap t ~after:(t.rob.Rob.head - 1) ~target
    | None -> (
        try
          let budget = ref t.cfg.decode_width in
          while !budget > 0 do
            match Rob.peek_head t.rob with
            | None -> raise Stop_commit
            | Some u ->
                if u.Uop.state = Uop.Completed && u.Uop.done_at <= t.now then begin
                  match u.Uop.exc with
                  | Some (exc, tval) ->
                      t.perf.p_traps <- t.perf.p_traps + 1;
                      emit_probe t u ~trap:(Some (exc, tval)) ~interrupt:None;
                      let target =
                        Trap.take_exception csr exc tval ~epc:u.Uop.pc
                      in
                      t.arch.Arch_state.pc <- target;
                      flush ~cause:`Trap t ~after:(u.Uop.seq - 1) ~target;
                      raise Stop_commit
                  | None ->
                      (* stores need a store-buffer slot (or are MMIO) *)
                      if Uop.is_store u then begin
                        if u.Uop.mmio then begin
                          let lat =
                            Lsu.drain_all t.lsu ~now:t.now
                              ~on_drain:(drain_notify t)
                          in
                          (try
                             Platform.write t.plat ~addr:u.Uop.paddr
                               ~size:u.Uop.msize u.Uop.sdata
                           with Platform.Bus_fault _ -> ());
                          t.commit_busy_until <- t.now + lat + 20
                        end
                        else begin
                          if Lsu.sb_full t.lsu then begin
                            Perf.Perf_counter.incr t.ctrs
                              t.ids.i_commit_sb_full;
                            raise Stop_commit
                          end;
                          Lsu.commit_store t.lsu u
                        end
                      end;
                      if Uop.is_load u then Lsu.remove_load t.lsu u;
                      if u.Uop.eliminated then
                        u.Uop.result <-
                          Rename.value t.rename ~is_fp:false ~prd:u.Uop.prd;
                      (* architectural update *)
                      if u.Uop.arch_rd >= 0 then begin
                        if u.Uop.rd_is_fp then
                          Arch_state.set_freg t.arch u.Uop.arch_rd u.Uop.result
                        else Arch_state.set_reg t.arch u.Uop.arch_rd u.Uop.result
                      end;
                      t.arch.Arch_state.pc <- u.Uop.next_pc;
                      csr.Csr.reg_minstret <-
                        Int64.add csr.Csr.reg_minstret (Int64.of_int u.Uop.n_insns);
                      t.perf.p_instrs <- t.perf.p_instrs + u.Uop.n_insns;
                      t.perf.p_uops <- t.perf.p_uops + 1;
                      emit_probe t u ~trap:None ~interrupt:None;
                      (match t.tracer with
                      | Some tr ->
                          Perf.Pipetrace.on_commit tr ~seq:u.Uop.seq ~now:t.now
                      | None -> ());
                      Rename.commit_release t.rename ~is_fp:u.Uop.rd_is_fp
                        ~old_prd:u.Uop.old_prd;
                      Rob.pop_head t.rob;
                      budget := !budget - u.Uop.n_insns;
                      (* serialising instructions flush the pipeline *)
                      (match u.Uop.insn with
                      | Csr _ | Mret | Sret | Fence_i | Sfence_vma _ | Wfi ->
                          flush ~cause:`Serial t ~after:u.Uop.seq
                            ~target:u.Uop.next_pc;
                          raise Stop_commit
                      | _ -> ())
                end
                else if
                  u.Uop.state <> Uop.Completed
                  && (u.Uop.where = Uop.At_commit
                     || (u.Uop.mmio && u.Uop.state = Uop.Issued))
                then begin
                  execute_at_head t u;
                  (* loop re-examines the now-completed head *)
                  if u.Uop.state <> Uop.Completed then raise Stop_commit
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
    else
      match Rob.peek_head t.rob with
      | None ->
          if t.now < t.icache_stall_until then Topdown.Frontend_icache
          else Topdown.Frontend_fetch
      | Some u -> (
          let mem_bucket () =
            match u.Uop.insn with
            | Insn.Sc _ | Insn.Amo _ -> Topdown.Mem_store
            | _ -> Topdown.Mem_load
          in
          match u.Uop.state with
          | Uop.Completed ->
              if u.Uop.done_at > t.now || t.now < t.commit_busy_until then (
                (* head still finishing: charge its execution class *)
                match u.Uop.exec_class with
                | Config.LOAD -> mem_bucket ()
                | Config.STORE -> Topdown.Mem_store
                | _ -> Topdown.Core_exec)
              else
                (* done and commit idle, yet nothing retired: the head
                   store is blocked on a store-buffer slot *)
                Topdown.Mem_store
          | Uop.Issued -> (
              match u.Uop.exec_class with
              | Config.LOAD -> mem_bucket ()
              | Config.STORE -> Topdown.Mem_store
              | _ -> Topdown.Core_exec)
          | Uop.Waiting -> (
              match u.Uop.exec_class with
              | Config.LOAD -> mem_bucket ()
              | Config.STORE -> Topdown.Mem_store
              | _ -> Topdown.Core_dep))
  in
  Perf_counter.incr t.ctrs t.ids.i_td.(Topdown.index bucket)

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
  t.perf.p_cycles <- t.perf.p_cycles + 1;
  t.arch.Arch_state.csr.Csr.reg_mcycle <- Int64.of_int t.now;
  Softmem.Cache.set_now t.l1i t.now;
  Softmem.Cache.set_now t.l1d t.now;
  let uops_before = t.perf.p_uops in
  apply_commit t e.ef_commit;
  let committed = t.perf.p_uops - uops_before in
  Perf.Perf_counter.incr t.ctrs t.ids.i_commit_w.(min committed 8);
  attribute_topdown t ~committed;
  apply_issue t e.ef_issue;
  if e.ef_drain.de_fire then
    Lsu.drain t.lsu ~now:t.now ~on_drain:(drain_notify t);
  if t.fetch_queue.fq_len = 0 then
    Perf.Perf_counter.incr t.ctrs t.ids.i_fetch_bubble;
  apply_dispatch t e.ef_dispatch;
  apply_fetch t e.ef_fetch;
  (* edge probe: PTW walks performed while a flush-recovery window is
     open (stale-translation refetch territory, the Figure 3 class) *)
  let walks = t.tlb.Tlb.walks in
  if t.now <= t.recover_until && walks > t.tlb_walk_seen then
    Perf.Perf_counter.add t.ctrs t.ids.i_tlb_walk_flush
      (walks - t.tlb_walk_seen);
  t.tlb_walk_seen <- walks

let cycle t = apply t (step t)

let ipc t =
  if t.perf.p_cycles = 0 then 0.0
  else float_of_int t.perf.p_instrs /. float_of_int t.perf.p_cycles

let set_tracer t tr = t.tracer <- tr

(* Merge every counter source into one named snapshot: the registry
   (top-down buckets, stall reasons, histograms), the legacy perf
   block, and the per-structure stats kept by the BPU/LSU/TLB/caches.
   This is the interchange format consumed by [Perf.Topdown],
   [Archdb.record_counters] and the CLI/bench reporters. *)
let counter_snapshot t : (string * int) list =
  let p = t.perf and b = t.bpu and l = t.lsu and tlb = t.tlb in
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
  Perf.Perf_counter.to_alist t.ctrs
  @ [
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
    ]
  @ cache "l1i" t.l1i @ cache "l1d" t.l1d

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
  match Rob.peek_head t.rob with
  | None -> Printf.sprintf "rob empty, fetch_pc=0x%Lx; %s" t.fetch_pc occupancy
  | Some u ->
      let state =
        match u.Uop.state with
        | Uop.Waiting -> "waiting"
        | Uop.Issued -> "issued"
        | Uop.Completed -> "completed"
      in
      Printf.sprintf "rob head seq=%d pc=0x%Lx [%s] %s; %s" u.Uop.seq
        u.Uop.pc (Insn.show u.Uop.insn) state occupancy
