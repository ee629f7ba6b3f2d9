(* Distributed issue queues (the paper's grouped reservation stations,
   32- or 16-entry, issuing one or two instructions per cycle) with a
   pluggable selection policy: AGE (oldest first) or PUBS (§IV-D:
   high-priority unconfident-branch slices first, then age).

   The queue is an age-ordered array plus a count: insert appends,
   removal compacts in place and resets the freed slot to
   [Uop.sentinel].  Phase 1 of the cycle writes the queue's selection
   into its own fixed-size buffer ([plan_issue]); phase 2 reads it and
   clears it ([clear_plan]). *)

type t = {
  cfg : Config.iq_config;
  policy : Config.issue_policy;
  slots : Uop.t array; (* [0, n) in insertion (age) order; rest sentinel *)
  mutable n : int;
  plan : Uop.t array; (* phase-1 selection, [0, n_plan) in issue order *)
  mutable n_plan : int;
}

let create (cfg : Config.iq_config) ~policy =
  {
    cfg;
    policy;
    slots = Array.make cfg.iq_size Uop.sentinel;
    n = 0;
    plan = Array.make cfg.iq_issue Uop.sentinel;
    n_plan = 0;
  }

let occupancy t = t.n

let capacity t = t.cfg.iq_size

let is_full t = t.n >= t.cfg.iq_size

let insert t (u : Uop.t) =
  assert (not (is_full t));
  u.Uop.in_iq <- true;
  t.slots.(t.n) <- u;
  t.n <- t.n + 1

let unless_squashed (u : Uop.t) =
  if u.Uop.squashed then u.Uop.in_iq <- false;
  not u.Uop.squashed

let drop_squashed t = t.n <- Uop.compact t.slots t.n ~keep:unless_squashed

(* Phase 1: one readiness scan over the waiting uops.  The plan buffer
   receives the first [iq_issue] ready uops in policy order -- age
   order, or under PUBS a stable partition with high-priority uops
   first -- and the result is the number of ready uops (the Figure 15
   count).  Under PUBS a high-priority uop is inserted after the
   high-priority prefix, pushing the youngest low-priority pick off
   the end of a full buffer. *)
let plan_issue t ~(ready : 'a -> Uop.t -> bool) (ctx : 'a) : int =
  let k = t.cfg.iq_issue and plan = t.plan in
  let total = ref 0 and n_hi = ref 0 and n_plan = ref 0 in
  for i = 0 to t.n - 1 do
    let u = t.slots.(i) in
    if u.Uop.state = Uop.Waiting && ready ctx u then begin
      incr total;
      match t.policy with
      | Config.Pubs when u.Uop.priority ->
          if !n_hi < k then begin
            for j = min !n_plan (k - 1) downto !n_hi + 1 do
              plan.(j) <- plan.(j - 1)
            done;
            plan.(!n_hi) <- u;
            incr n_hi;
            n_plan := min (!n_plan + 1) k
          end
      | Config.Age | Config.Pubs ->
          if !n_plan < k then begin
            plan.(!n_plan) <- u;
            incr n_plan
          end
    end
  done;
  t.n_plan <- !n_plan;
  !total

let planned t = t.n_plan

let planned_uop t i = t.plan.(i)

let clear_plan t =
  Array.fill t.plan 0 t.n_plan Uop.sentinel;
  t.n_plan <- 0

let remove t (u : Uop.t) =
  u.Uop.in_iq <- false;
  t.n <- Uop.remove_seq t.slots t.n u.Uop.seq

(* Fault injection: silently lose the oldest waiting uop.  It stays
   Waiting in the ROB forever, so commit wedges on it -- unless a
   flush squashes it first (the caller retries in that case). *)
let steal_waiting t : Uop.t option =
  let i = ref 0 in
  while !i < t.n && t.slots.(!i).Uop.state <> Uop.Waiting do
    incr i
  done;
  if !i < t.n then begin
    let u = t.slots.(!i) in
    remove t u;
    Some u
  end
  else None
