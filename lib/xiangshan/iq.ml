(* Distributed issue queues (the paper's grouped reservation stations,
   32- or 16-entry, issuing one or two instructions per cycle) with a
   pluggable selection policy: AGE (oldest first) or PUBS (§IV-D:
   high-priority unconfident-branch slices first, then age).

   The queue is an age-ordered array of sequence numbers plus a count:
   insert appends, removal compacts in place.  The uops themselves
   stay in their ROB rows ([uops]).  Phase 1 of the cycle writes the
   queue's selection into its own fixed-size buffer ([plan_issue]);
   phase 2 reads it and clears it ([clear_plan]). *)

type t = {
  cfg : Config.iq_config;
  policy : Config.issue_policy;
  uops : Uop.t;
  slots : int array; (* [0, n) in insertion (age) order, rest -1 *)
  mutable n : int;
  plan : int array; (* phase-1 selection, [0, n_plan) in issue order *)
  mutable n_plan : int;
}

(* A uop row's int field, read in place as [Uop.get] does: the
   readiness scan reads it for every waiting uop every cycle. *)
let[@inline] get (u : Uop.t) r f = u.Uop.ints.((r lsl 4) lor f)

let[@inline] row (u : Uop.t) seq = seq land u.Uop.mask

let create (cfg : Config.iq_config) ~policy ~uops =
  {
    cfg;
    policy;
    uops;
    slots = Array.make cfg.iq_size (-1);
    n = 0;
    plan = Array.make cfg.iq_issue (-1);
    n_plan = 0;
  }

let occupancy t = t.n

let capacity t = t.cfg.iq_size

let is_full t = t.n >= t.cfg.iq_size

let insert t seq =
  assert (not (is_full t));
  Uop.set_flag t.uops (row t.uops seq) Uop.b_in_iq true;
  t.slots.(t.n) <- seq;
  t.n <- t.n + 1

(* A flush forgets its squashed uops everywhere, the plan buffer
   included: their seqs are reallocated from the new tail, so a
   reference that outlived the flush could name the next uop to take
   the same seq and row. *)
let drop_squashed t =
  t.n <- Uop.drop_squashed t.uops t.slots t.n;
  t.n_plan <- Uop.drop_squashed t.uops t.plan t.n_plan

(* Phase 1: one readiness scan over the waiting uops.  The plan buffer
   receives the first [iq_issue] ready uops in policy order -- age
   order, or under PUBS a stable partition with high-priority uops
   first -- and the result is the number of ready uops (the Figure 15
   count).  Under PUBS a high-priority uop is inserted after the
   high-priority prefix, pushing the youngest low-priority pick off
   the end of a full buffer.  [ready] gets the uop's row. *)
let plan_issue t ~(ready : 'a -> int -> bool) (ctx : 'a) : int =
  let k = t.cfg.iq_issue and plan = t.plan and u = t.uops in
  let total = ref 0 and n_hi = ref 0 and n_plan = ref 0 in
  for i = 0 to t.n - 1 do
    let seq = t.slots.(i) in
    let r = seq land u.Uop.mask in
    if get u r Uop.i_state = Uop.waiting && ready ctx r then begin
      incr total;
      match t.policy with
      | Config.Pubs when get u r Uop.i_flags land Uop.b_priority <> 0 ->
          if !n_hi < k then begin
            for j = min !n_plan (k - 1) downto !n_hi + 1 do
              plan.(j) <- plan.(j - 1)
            done;
            plan.(!n_hi) <- seq;
            incr n_hi;
            n_plan := min (!n_plan + 1) k
          end
      | Config.Age | Config.Pubs ->
          if !n_plan < k then begin
            plan.(!n_plan) <- seq;
            incr n_plan
          end
    end
  done;
  t.n_plan <- !n_plan;
  !total

let planned t = t.n_plan

let planned_seq t i = t.plan.(i)

let clear_plan t =
  Array.fill t.plan 0 t.n_plan (-1);
  t.n_plan <- 0

let remove t seq =
  Uop.set_flag t.uops (row t.uops seq) Uop.b_in_iq false;
  t.n <- Uop.remove_seq t.slots t.n seq

(* Fault injection: silently lose the oldest waiting uop.  It stays
   Waiting in the ROB forever, so commit wedges on it -- unless a
   flush squashes it first (the caller retries in that case). *)
let steal_waiting t : int =
  let u = t.uops in
  let i = ref 0 in
  while
    !i < t.n && Uop.get u (row u t.slots.(!i)) Uop.i_state <> Uop.waiting
  do
    incr i
  done;
  if !i < t.n then begin
    let seq = t.slots.(!i) in
    remove t seq;
    seq
  end
  else -1
