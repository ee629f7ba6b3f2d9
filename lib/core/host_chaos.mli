(** Seeded, deterministic injection of harness-level host faults.

    The fault campaign proves the verification stack catches DUT bugs;
    nothing proved the harness itself survives the hosts it runs on.
    This module injects the host-side failure modes a long unattended
    run actually meets -- a worker SIGKILLed mid-job, EINTR storms on
    pipe I/O, short pipe writes, a worker stalled past its deadline,
    ENOSPC on the result journal -- at fixed points {!Pool} and
    {!Journal} consult.  Every injection is a pure function of the
    armed seed (plus the job label and attempt number), so a chaos run
    is exactly reproducible, and the runtime's recovery machinery
    (retry/backoff in {!Grid}, journal truncation, EINTR/short
    -write retry loops in {!Pool}) must deliver a campaign verdict
    byte-identical to the clean run.

    When disarmed (the default) every hook is a cheap no-op; arming is
    process-global so forked pool workers inherit the plan. *)

type fault_class =
  | Worker_kill  (** SIGKILL selected workers mid-job (attempt 0 only):
                     half die before running, half after writing a
                     truncated result frame *)
  | Eintr_storm  (** a bounded burst of synthetic [EINTR]s raised ahead
                     of pipe reads/writes and [waitpid] *)
  | Short_write  (** clamp a bounded number of pipe/journal writes to a
                     few bytes, forcing the partial-transfer path *)
  | Slow_worker  (** selected workers sleep before running (attempt 0
                     only), firing the pool's timeout escalation *)
  | Journal_enospc
      (** the first journal append past the header fails ENOSPC-shaped;
          the journal must degrade, not abort the run *)

val all_classes : fault_class list

val class_name : fault_class -> string
(** "worker-kill", "eintr", "short-write", "slow-worker",
    "journal-enospc". *)

val classes_of_names : string list -> fault_class list
(** Class names as {!class_name} prints them, ["all"] for every class.
    @raise Invalid_argument on an unknown name. *)

val arm : ?slow_delay:float -> seed:int -> fault_class list -> unit
(** Install a chaos plan (replacing any previous one) and zero the
    fired counters.  [slow_delay] (default 4s) is the stall injected
    into {!Slow_worker}-selected workers -- pick it above the pool
    timeout of the run under test. *)

val disarm : unit -> unit

val armed : unit -> fault_class list
(** The armed classes, [[]] when disarmed. *)

(** {1 Injection points} (no-ops when the class is not armed) *)

type worker_fate =
  | Run  (** no interference *)
  | Kill_before_run  (** SIGKILL self before the job body *)
  | Die_mid_write  (** write a truncated result frame, then SIGKILL *)
  | Stall of float  (** sleep this long before the job body *)

val worker_fate : label:string -> attempt:int -> worker_fate
(** Consulted by the forked worker.  Deterministic in (seed, label);
    always {!Run} for [attempt > 0], so a supervised retry converges. *)

val pipe_io_interrupt : unit -> unit
(** May raise [Unix_error (EINTR, ...)] -- called ahead of pipe reads,
    writes and [waitpid] so retry loops face synthetic storms.  The
    burst is bounded per process. *)

val clamp_write : int -> int
(** Under {!Short_write}, clamps a write length to a few bytes for a
    bounded number of calls; otherwise the identity. *)

val journal_append_check : index:int -> unit
(** May raise [Unix_error (ENOSPC, ...)] for the record at [index]
    under {!Journal_enospc} (fires once per armed plan). *)

(** {1 Reporting} *)

val planned : labels:string list -> (string * int) list
(** Per-class injection counts the armed plan would fire against a job
    list with these labels (worker fates are counted by evaluating the
    same deterministic selection; I/O storms report their budgets). *)

val fired : unit -> (string * int) list
(** Per-class injections actually fired {e in this process} since
    {!arm}.  Worker-side fires happen in forked children and do not
    show up here; use {!planned} for totals. *)
