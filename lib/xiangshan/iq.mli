(** Distributed issue queues (the paper's grouped reservation
    stations) with a pluggable selection policy: AGE (oldest first) or
    PUBS (§IV-D: high-priority unconfident-branch slices first, age
    within each class).

    Each queue is an age-ordered array of sequence numbers plus a
    count, and owns a fixed-size plan buffer that the phase-1 issue
    planner fills and phase 2 reads and clears.  The uops stay in
    their ROB rows ([uops]). *)

type t = {
  cfg : Config.iq_config;
  policy : Config.issue_policy;
  uops : Uop.t;  (** the core's uop rows *)
  slots : int array;
      (** sequence numbers, [0, n) in age order; free slots hold -1 *)
  mutable n : int;
  plan : int array;  (** [iq_issue] entries; [0, n_plan) planned *)
  mutable n_plan : int;
}

val create :
  Config.iq_config -> policy:Config.issue_policy -> uops:Uop.t -> t

val occupancy : t -> int

val capacity : t -> int

val is_full : t -> bool

val insert : t -> int -> unit
(** [insert t seq]: append as the youngest entry and set its [in_iq];
    O(1). *)

val drop_squashed : t -> unit
(** Compact out squashed uops in place, keeping age order, from the
    queue and from the plan buffer: a squashed uop's seq is reallocated
    from the new tail, so no reference to it may outlive the flush. *)

val plan_issue : t -> ready:('a -> int -> bool) -> 'a -> int
(** Phase 1: one readiness scan ([ready ctx r] on the row of each
    waiting uop)
    fills the plan buffer with up to [iq_issue] ready uops in policy
    order and returns the number of ready uops (the Figure 15
    instrumentation).  Allocates nothing; writes only the plan
    buffer. *)

val planned : t -> int
(** Entries in the plan buffer. *)

val planned_seq : t -> int -> int
(** [planned_seq t i], [0 <= i < planned t], in issue order.  A
    boundary fault hook may have stolen the uop since: revalidate
    before issuing it. *)

val clear_plan : t -> unit
(** Empty the plan buffer (after phase 2 applied it), resetting its
    entries to -1. *)

val remove : t -> int -> unit
(** [remove t seq]: remove the entry, compacting in place, and clear
    its [in_iq]. *)

val steal_waiting : t -> int
(** Fault injection: remove the oldest waiting uop and return its
    sequence number (-1 if none waits); it then never issues (commit
    wedges on it unless it is squashed). *)
