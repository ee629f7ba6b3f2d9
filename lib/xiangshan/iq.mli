(** Distributed issue queues (the paper's grouped reservation
    stations) with a pluggable selection policy: AGE (oldest first) or
    PUBS (§IV-D: high-priority unconfident-branch slices first, age
    within each class).

    Each queue is an age-ordered array plus a count, and owns a
    fixed-size plan buffer that the phase-1 issue planner fills and
    phase 2 reads and clears. *)

type t = {
  cfg : Config.iq_config;
  policy : Config.issue_policy;
  slots : Uop.t array;
      (** [0, n) in age (insertion) order; free slots hold
          [Uop.sentinel] *)
  mutable n : int;
  plan : Uop.t array;  (** [iq_issue] entries; [0, n_plan) planned *)
  mutable n_plan : int;
}

val create : Config.iq_config -> policy:Config.issue_policy -> t

val occupancy : t -> int

val capacity : t -> int

val is_full : t -> bool

val insert : t -> Uop.t -> unit
(** Append as the youngest entry; O(1). *)

val drop_squashed : t -> unit
(** Compact out squashed uops in place, keeping age order. *)

val plan_issue : t -> ready:('a -> Uop.t -> bool) -> 'a -> int
(** Phase 1: one readiness scan ([ready ctx u] on each waiting uop)
    fills the plan buffer with up to [iq_issue] ready uops in policy
    order and returns the number of ready uops (the Figure 15
    instrumentation).  Allocates nothing; writes only the plan
    buffer. *)

val planned : t -> int
(** Entries in the plan buffer. *)

val planned_uop : t -> int -> Uop.t
(** [planned_uop t i], [0 <= i < planned t], in issue order. *)

val clear_plan : t -> unit
(** Reset the plan buffer to [Uop.sentinel] (after phase 2 applied it,
    so a snapshot holds no stale uop). *)

val remove : t -> Uop.t -> unit
(** Remove the uop (by sequence number), compacting in place. *)

val steal_waiting : t -> Uop.t option
(** Fault injection: remove and return the oldest waiting uop, which
    then never issues (commit wedges on it unless it is squashed). *)
