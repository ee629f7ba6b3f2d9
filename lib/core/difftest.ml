(* DiffTest: the DRAV co-simulation framework for RISC-V processors
   (§III-B, Figure 4).

   The DUT (a Xiangshan.Soc) and one single-core REF per hart run
   simultaneously; the DUT's commit stream, extracted by the
   information probes, drives the REFs instruction by instruction.
   Diff-rules reconcile legal micro-architecture-dependent divergence;
   anything they cannot justify aborts the simulation with a located
   failure, which the LightSSS workflow can then replay in debug
   mode. *)

open Riscv

type status =
  | Running
  | Finished of int (* exit code *)
  | Failed of Rule.failure

(* Store accounting (the drain checker): every committed store must
   reach the cache hierarchy, in order, with its committed value.
   Faults that drop, reorder or never perform drains are invisible to
   the Global Memory rule (unrecorded bytes are unconstrained there),
   so they are checked directly against the commit stream. *)
type pending_store = {
  ps_paddr : int64;
  ps_size : int;
  ps_value : int64;
  ps_commit_cycle : int;
}

(* One hart's committed stores that have not drained yet, in commit
   order: a ring of [Array.length size] slots holding [n] stores from
   [head], one store per slot across four columns (the 64-bit ones
   unboxed, 8 bytes per slot), laid out like [Xiangshan.Lsu]'s store
   buffer.  Recording a store allocates nothing.  A store buffer that
   drops or withholds drains can leave many stores pending before the
   timeout fires, so a full ring doubles. *)
type store_ring = {
  mutable paddr : Bytes.t;
  mutable size : int array;
  mutable value : Bytes.t;
  mutable cycle : int array; (* commit cycle *)
  mutable head : int;
  mutable n : int;
}

let ring_create cap =
  {
    paddr = Bytes.make (8 * cap) '\000';
    size = Array.make cap 0;
    value = Bytes.make (8 * cap) '\000';
    cycle = Array.make cap 0;
    head = 0;
    n = 0;
  }

let[@inline] get64 col i = Bytes.get_int64_ne col (i lsl 3)

(* The slot of the [k]th oldest pending store. *)
let ring_slot q k = (q.head + k) mod Array.length q.size

let ring_push q ~paddr ~size ~value ~cycle =
  if q.n = Array.length q.size then begin
    let bigger = ring_create (2 * q.n) in
    for k = 0 to q.n - 1 do
      let i = ring_slot q k in
      Bytes.blit q.paddr (8 * i) bigger.paddr (8 * k) 8;
      bigger.size.(k) <- q.size.(i);
      Bytes.blit q.value (8 * i) bigger.value (8 * k) 8;
      bigger.cycle.(k) <- q.cycle.(i)
    done;
    q.paddr <- bigger.paddr;
    q.size <- bigger.size;
    q.value <- bigger.value;
    q.cycle <- bigger.cycle;
    q.head <- 0
  end;
  let i = ring_slot q q.n in
  Bytes.set_int64_ne q.paddr (8 * i) paddr;
  q.size.(i) <- size;
  Bytes.set_int64_ne q.value (8 * i) value;
  q.cycle.(i) <- cycle;
  q.n <- q.n + 1

let ring_pop q =
  q.head <- ring_slot q 1;
  q.n <- q.n - 1

type t = {
  soc : Xiangshan.Soc.t;
  ref_kind : Ref_model.kind;
  ctx : Rule.ctx;
  rules : Rule.t list;
  (* [rules] with a pre / a post check, in list order, split once *)
  pre_rules : Rule.t array;
  post_rules : Rule.t array;
  scoreboard : Softmem.Scoreboard.t option;
  mutable status : status;
  mutable commits_checked : int;
  mutable debug_log : (int * string) list; (* debug mode only *)
  mutable debug : bool;
  last_commit_cycle : int array; (* per-hart watchdog *)
  mutable commit_timeout : int;
  (* store accounting *)
  pending_stores : store_ring array; (* per hart *)
  early_drains : pending_store list array;
      (* drains seen this cycle before their commit probe was
         processed (a store can retire into the buffer and drain in
         the same cycle); also absorbs atomics' direct writes, which
         have no store probe.  Cleared at the end of a tick that
         parked one. *)
  mutable parked : bool; (* [park] ran this tick *)
  mutable store_timeout : int;
  compared_epoch : int array;
      (* per hart, the DUT's [Arch_state.epoch] at its last state
         compare; -1 (never an epoch) forces the next one *)
}

let fail_now (t : t) ~hart ~pc ?(probe = "") ~rule msg =
  if
    match t.status with
    | Running -> true
    | Finished _ | Failed _ -> false
  then
    t.status <-
      Failed
        {
          Rule.f_cycle = t.soc.Xiangshan.Soc.now;
          f_hart = hart;
          f_pc = pc;
          f_rule = rule;
          f_msg = msg;
          f_commits = t.commits_checked;
          f_probe = probe;
        }

(* Callers test [t.debug] first, so fast mode formats nothing. *)
let log t fmt =
  Printf.ksprintf
    (fun s -> t.debug_log <- (t.soc.Xiangshan.Soc.now, s) :: t.debug_log)
    fmt

(* Park a drain until this cycle's commit probes are processed. *)
let park (t : t) hart (d : Xiangshan.Probe.store_drain) =
  t.parked <- true;
  t.early_drains.(hart) <-
    {
      ps_paddr = d.Xiangshan.Probe.d_paddr;
      ps_size = d.Xiangshan.Probe.d_size;
      ps_value = d.Xiangshan.Probe.d_value;
      ps_commit_cycle = d.Xiangshan.Probe.d_cycle;
    }
    :: t.early_drains.(hart)

(* A drain arrived from hart [hart]'s store buffer.  Committed stores
   drain in commit order, so the drain must match the oldest pending
   store exactly; matching a younger one instead means an older store
   was skipped or the buffer reordered.  Drains with no pending match
   are parked in [early_drains] until this cycle's commit probes are
   processed (same-cycle retire+drain, atomics' direct writes). *)
let note_drain (t : t) hart (d : Xiangshan.Probe.store_drain) =
  let dp = d.Xiangshan.Probe.d_paddr
  and ds = d.Xiangshan.Probe.d_size
  and dv = d.Xiangshan.Probe.d_value in
  let q = t.pending_stores.(hart) in
  if q.n = 0 then park t hart d
  else begin
    let h = q.head in
    if Int64.equal (get64 q.paddr h) dp && q.size.(h) = ds then begin
      if Int64.equal (get64 q.value h) dv then ring_pop q
      else
        fail_now t ~hart ~pc:t.soc.Xiangshan.Soc.cores.(hart)
                          .Xiangshan.Core.arch.Riscv.Arch_state.pc
          ~rule:"store-drain-value"
          (Printf.sprintf
             "store @0x%Lx (size %d) committed 0x%Lx but drained 0x%Lx" dp ds
             (get64 q.value h) dv)
    end
    else begin
      (* FIFO order means a clean drain always matches the head; a
         match deeper in the queue is a drop or reorder of everything
         older *)
      let found = ref (-1) and k = ref 1 in
      while !found < 0 && !k < q.n do
        let i = ring_slot q !k in
        if
          Int64.equal (get64 q.paddr i) dp
          && q.size.(i) = ds
          && Int64.equal (get64 q.value i) dv
        then found := !k;
        incr k
      done;
      if !found > 0 then
        fail_now t ~hart ~pc:t.soc.Xiangshan.Soc.cores.(hart)
                          .Xiangshan.Core.arch.Riscv.Arch_state.pc
          ~rule:"store-drain-order"
          (Printf.sprintf
             "drain @0x%Lx=0x%Lx matches the committed store %d deep; the \
              older store @0x%Lx=0x%Lx (commit cycle %d) was skipped or \
              reordered"
             dp dv !found (get64 q.paddr h) (get64 q.value h) q.cycle.(h))
      else park t hart d
    end
  end

(* [parked] without the first drain of [value] to [paddr] / [size],
   if there is one. *)
let rec take_parked ~paddr ~size ~value acc = function
  | [] -> None
  | (e : pending_store) :: rest ->
      if e.ps_paddr = paddr && e.ps_size = size && e.ps_value = value then
        Some (List.rev_append acc rest)
      else take_parked ~paddr ~size ~value (e :: acc) rest

(* A store probe committed: either its drain already raced past this
   cycle (consume the parked announcement) or it joins the pending
   ring to be matched when the buffer drains it. *)
let note_committed_store (t : t) ~hart (p : Xiangshan.Probe.commit) =
  if p.Xiangshan.Probe.p_has_store && not p.Xiangshan.Probe.p_mmio then begin
    let paddr = p.Xiangshan.Probe.p_mem_paddr
    and size = p.Xiangshan.Probe.p_mem_size
    and value = p.Xiangshan.Probe.p_store_value in
    match take_parked ~paddr ~size ~value [] t.early_drains.(hart) with
    | Some rest -> t.early_drains.(hart) <- rest
    | None ->
        ring_push t.pending_stores.(hart) ~paddr ~size ~value
          ~cycle:p.Xiangshan.Probe.p_cycle
  end

(* Attach probes to the SoC and build REFs mirroring the program.
   [ref_kind] selects the reference-model backend. *)
let create ?rules ?(with_scoreboard = true) ?(ref_kind = Ref_model.Iss)
    ~(prog : Asm.program) (soc : Xiangshan.Soc.t) : t =
  let rules = match rules with Some r -> r | None -> Rules.standard () in
  let n = Array.length soc.Xiangshan.Soc.cores in
  let refs =
    Array.init n (fun hartid ->
        Ref_model.create ~kind:ref_kind ~hartid ~prog ())
  in
  let ctx =
    {
      Rule.refs;
      global_mem = Global_memory.create ();
      soc;
      failure = None;
      forced_history = Hashtbl.create 64;
    }
  in
  let scoreboard =
    if not with_scoreboard then None
    else begin
      let parent, children =
        match soc.Xiangshan.Soc.l3 with
        | Some _ ->
            ( "l3",
              Array.init n (fun i -> Printf.sprintf "l2.%d" i) )
        | None ->
            ( "l2.0",
              [| "l1i.0"; "l1d.0"; "ptw.0" |] )
      in
      Some (Softmem.Scoreboard.create ~node:parent ~children)
    end
  in
  let t =
    {
      soc;
      ref_kind;
      ctx;
      rules;
      pre_rules =
        Array.of_list
          (List.filter (fun (r : Rule.t) -> Option.is_some r.Rule.pre) rules);
      post_rules =
        Array.of_list
          (List.filter (fun (r : Rule.t) -> Option.is_some r.Rule.post) rules);
      scoreboard;
      status = Running;
      commits_checked = 0;
      debug_log = [];
      debug = false;
      last_commit_cycle = Array.make n 0;
      commit_timeout = 20_000;
      pending_stores = Array.init n (fun _ -> ring_create 16);
      early_drains = Array.make n [];
      parked = false;
      store_timeout = 10_000;
      compared_epoch = Array.make n (-1);
    }
  in
  Array.iteri
    (fun i core ->
      core.Xiangshan.Core.probes.Xiangshan.Probe.on_drain <-
        (fun d ->
          (* only a second hart's stores can justify a load mismatch,
             so a single-hart SoC keeps no history (see the
             "global-memory-load" rule) *)
          if n > 1 then
            Global_memory.record ctx.Rule.global_mem
              ~cycle:d.Xiangshan.Probe.d_cycle ~paddr:d.Xiangshan.Probe.d_paddr
              ~size:d.Xiangshan.Probe.d_size ~value:d.Xiangshan.Probe.d_value;
          note_drain t i d))
    soc.Xiangshan.Soc.cores;
  (match scoreboard with
  | Some sb ->
      Xiangshan.Soc.set_event_sink soc (fun ev ->
          Softmem.Scoreboard.observe sb ev)
  | None -> ());
  t

let apply_pre t ~hart (p : Xiangshan.Probe.commit) =
  for i = 0 to Array.length t.pre_rules - 1 do
    let r = t.pre_rules.(i) in
    match r.Rule.pre with
    | Some f -> if f t.ctx ~hart p then r.Rule.fires <- r.Rule.fires + 1
    | None -> ()
  done

let apply_post t ~hart (p : Xiangshan.Probe.commit) (c : Ref_model.commit) =
  for i = 0 to Array.length t.post_rules - 1 do
    let r = t.post_rules.(i) in
    match r.Rule.post with
    | Some f -> (
        match f t.ctx ~hart p c with
        | Rule.Pass -> ()
        | Rule.Patched ->
            r.Rule.fires <- r.Rule.fires + 1;
            if t.debug then
              log t "rule %s patched REF at pc=0x%Lx" r.Rule.name p.p_pc
        | Rule.Fail msg ->
            r.Rule.fires <- r.Rule.fires + 1;
            fail_now t ~hart ~pc:p.p_pc ~probe:(Rule.describe_probe p)
              ~rule:r.Rule.name msg)
    | None -> ()
  done

let process_commit t ~hart (p : Xiangshan.Probe.commit) =
  let r = t.ctx.Rule.refs.(hart) in
  t.commits_checked <- t.commits_checked + 1;
  t.last_commit_cycle.(hart) <- p.p_cycle;
  note_committed_store t ~hart p;
  apply_pre t ~hart p;
  (match t.ctx.Rule.failure with
  | Some f ->
      t.status <- Failed { f with Rule.f_commits = t.commits_checked };
      t.ctx.Rule.failure <- None
  | None -> ());
  match t.status with
  | Failed _ | Finished _ -> ()
  | Running -> (
      match r.Ref_model.step () with
      | Ref_model.Exited -> ()
      | Ref_model.Committed c -> (
          if c.Ref_model.pc <> p.p_pc then
            fail_now t ~hart ~pc:p.p_pc ~probe:(Rule.describe_probe p)
              ~rule:"pc-check"
              (Printf.sprintf "pc mismatch: DUT commits 0x%Lx, REF at 0x%Lx"
                 p.p_pc c.Ref_model.pc);
          (* fused second instruction: the REF executes both.  Its
             step refills the REF's commit record, and the post rules
             read the first commit, so that one is kept as a copy. *)
          let c =
            match p.p_second with
            | Some _ -> Ref_model.copy_commit c
            | None -> c
          in
          let final_c =
            match p.p_second with
            | Some _ -> (
                match r.Ref_model.step () with
                | Ref_model.Committed c2 -> c2
                | Ref_model.Exited -> c)
            | None -> c
          in
          apply_post t ~hart p c;
          match t.status with
          | Failed _ | Finished _ -> ()
          | Running ->
              if
                final_c.Ref_model.next_pc <> p.p_next_pc
                && p.p_trap = None && p.p_interrupt = None
              then
                fail_now t ~hart ~pc:p.p_pc ~probe:(Rule.describe_probe p)
                  ~rule:"next-pc-check"
                  (Printf.sprintf
                     "next pc mismatch at 0x%Lx: DUT 0x%Lx, REF 0x%Lx" p.p_pc
                     p.p_next_pc final_c.Ref_model.next_pc)))

(* End-of-cycle architectural comparison of one hart (after every
   hart's commit slots have been checked): its whole state, pc,
   registers and the CSR digest.  [diff_against] allocates nothing
   while DUT and REF agree.  [tick] decides which harts need it. *)
let compare_state t hart =
  let arch = t.soc.Xiangshan.Soc.cores.(hart).Xiangshan.Core.arch in
  match t.ctx.Rule.refs.(hart).Ref_model.diff_against arch with
  | Some msg ->
      fail_now t ~hart ~pc:arch.Arch_state.pc ~rule:"state-compare"
        ("DUT vs REF: " ^ msg)
  | None -> ()

let check_scoreboard t =
  match t.scoreboard with
  | Some sb when not (Softmem.Scoreboard.ok sb) ->
      let v = List.hd (Softmem.Scoreboard.violations sb) in
      fail_now t ~hart:(-1) ~pc:0L ~rule:"cache-permission-scoreboard"
        (Printf.sprintf "block 0x%Lx at cycle %d: %s"
           v.Softmem.Scoreboard.v_addr v.Softmem.Scoreboard.v_cycle
           v.Softmem.Scoreboard.v_msg)
  | Some _ | None -> ()

let running t =
  match t.status with Running -> true | Finished _ | Failed _ -> false

(* Hang watchdog: a hart that stops committing is hung -- the bug
   class commit-diffing cannot see.  The failure carries the
   retirement stall site from the probes. *)
let check_hangs t =
  let soc = t.soc in
  for hart = 0 to Array.length t.last_commit_cycle - 1 do
    if
      soc.Xiangshan.Soc.now - t.last_commit_cycle.(hart) > t.commit_timeout
      && not (Xiangshan.Soc.exited soc)
    then
      fail_now t ~hart
        ~pc:soc.Xiangshan.Soc.cores.(hart).Xiangshan.Core.arch.Arch_state.pc
        ~rule:"hang-watchdog"
        (Printf.sprintf
           "hart %d committed nothing for %d cycles; stall site: %s" hart
           t.commit_timeout
           (Xiangshan.Core.stall_site soc.Xiangshan.Soc.cores.(hart)))
  done

(* Store accounting: a committed store must drain within the timeout
   (dropped or wedged store buffers). *)
let check_store_drains t =
  let soc = t.soc in
  for hart = 0 to Array.length t.pending_stores - 1 do
    let q = t.pending_stores.(hart) in
    if q.n > 0 then begin
      let h = q.head in
      let committed = q.cycle.(h) in
      if
        soc.Xiangshan.Soc.now - committed > t.store_timeout
        && not (Xiangshan.Soc.exited soc)
      then
        fail_now t ~hart
          ~pc:soc.Xiangshan.Soc.cores.(hart).Xiangshan.Core.arch.Arch_state.pc
          ~rule:"store-drain-timeout"
          (Printf.sprintf
             "store @0x%Lx=0x%Lx committed at cycle %d never drained (%d \
              cycles ago); %s"
             (get64 q.paddr h) (get64 q.value h) committed
             (soc.Xiangshan.Soc.now - committed)
             (Xiangshan.Core.stall_site soc.Xiangshan.Soc.cores.(hart)))
    end
  done

(* One co-simulated cycle.  Plain loops throughout: a closure per
   cycle would be allocation the check does not need. *)
let tick t =
  if running t then begin
    Xiangshan.Soc.tick t.soc;
    (* keep REF wall-clock in sync (part of the time diff-rule) *)
    let clint = t.soc.Xiangshan.Soc.plat.Platform.clint in
    let refs = t.ctx.Rule.refs in
    for i = 0 to Array.length refs - 1 do
      Platform.Clint.copy_mtime ~src:clint ~dst:refs.(i).Ref_model.clint
    done;
    (* each hart's commit slots, in place and in retirement order *)
    let cores = t.soc.Xiangshan.Soc.cores in
    for hart = 0 to Array.length cores - 1 do
      let core = cores.(hart) in
      let k = ref 0 in
      while !k < core.Xiangshan.Core.n_slots && running t do
        process_commit t ~hart core.Xiangshan.Core.slots.(!k);
        incr k
      done
    done;
    (* parked drain announcements only live until this cycle's
       probes are processed *)
    if t.parked then begin
      Array.fill t.early_drains 0 (Array.length t.early_drains) [];
      t.parked <- false
    end;
    if running t then begin
      (* Compare a hart only where its two states can have moved
         apart since its last compare: its DUT epoch moved (see
         [Arch_state]), or it retired, the only time its REF changes
         (a rule touches only its own hart's REF).  A fault hook can
         write any DUT state directly, so with hooks every hart is
         compared every cycle. *)
      let hooked =
        match t.soc.Xiangshan.Soc.fault_hooks with [] -> false | _ -> true
      in
      for hart = 0 to Array.length cores - 1 do
        let core = cores.(hart) in
        let epoch = core.Xiangshan.Core.arch.Arch_state.epoch in
        if
          hooked
          || core.Xiangshan.Core.n_slots > 0
          || epoch <> t.compared_epoch.(hart)
        then begin
          t.compared_epoch.(hart) <- epoch;
          compare_state t hart
        end
      done;
      check_scoreboard t;
      check_hangs t;
      check_store_drains t;
      if Xiangshan.Soc.exited t.soc then
        t.status <-
          Finished (Option.value (Xiangshan.Soc.exit_code t.soc) ~default:(-1))
    end
  end

(* Sorted by rule name so output is stable across rule-list order
   and REF backends. *)
let rule_fire_counts t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map (fun (r : Rule.t) -> (r.Rule.name, r.Rule.fires)) t.rules)

let set_commit_timeout t n = t.commit_timeout <- n

let set_store_timeout t n = t.store_timeout <- n

let compare_next_tick t =
  Array.fill t.compared_epoch 0 (Array.length t.compared_epoch) (-1)

let enable_debug t = t.debug <- true

let debug_log t = List.rev t.debug_log

(* --- accessors (the record is abstract outside this module) ----------- *)

let soc t = t.soc

let ref_kind t = t.ref_kind

let refs t = t.ctx.Rule.refs

let ctx t = t.ctx

let global_mem t = t.ctx.Rule.global_mem

let status t = t.status

let commits_checked t = t.commits_checked
