(** The configuration of one run, resolved once at the program's edge.

    Every [MINJIE_*] environment variable is read here and nowhere
    else.  Each field comes from a command-line flag when one is
    given, else from its variable, else from the default.  Only the
    front ends ([bin/], [bench/]) call {!resolve}; the libraries take
    the resolved values as plain arguments.

    {v
    field        flag            variable            default
    jobs         --jobs          MINJIE_JOBS         1
    retries      --retries       MINJIE_RETRIES      0
    resume       --resume        MINJIE_RESUME       false
    ref_kind     --ref           MINJIE_REF          the command's own
    phase_order  -               MINJIE_PHASE_ORDER  default
    chaos        --chaos         MINJIE_CHAOS        none
    chaos_seed   --chaos-seed    MINJIE_CHAOS_SEED   1
    v} *)

type t = {
  jobs : int;  (** pool workers, >= 1 *)
  retries : int;  (** supervised re-runs per failed job, >= 0 *)
  resume : bool;  (** replay a matching journal *)
  ref_kind : Ref_model.kind option;
      (** the REF backend; [None] leaves the command's own default *)
  phase_order : Xiangshan.Core.phase_order;
      (** phase-1 planner order of the cycle model *)
  chaos : Host_chaos.fault_class list;  (** host-chaos classes to arm *)
  chaos_seed : int;  (** the chaos schedule's seed *)
}

val resolve :
  ?jobs:int ->
  ?retries:int ->
  ?resume:bool ->
  ?ref_kind:Ref_model.kind ->
  ?chaos:Host_chaos.fault_class list ->
  ?chaos_seed:int ->
  unit ->
  t
(** Explicit arguments win over the environment, which wins over the
    defaults.  Every variable is parsed here, so a malformed value is
    refused before any work starts.  An explicit [jobs] is clamped to
    >= 1 and [retries] to >= 0.  An unset or empty variable means "not
    given".  Accepted forms: [MINJIE_RESUME] [0/false/off/no] or
    [1/true/on/yes]; [MINJIE_REF] [iss] or [nemu]; [MINJIE_PHASE_ORDER]
    [default], [shuffle] or [shuffle:SEED]; [MINJIE_CHAOS] a
    comma-separated {!Host_chaos.classes_of_names} list.
    @raise Invalid_argument naming the variable on any other value. *)

val journal : t -> default:string -> string option -> string option
(** The journal path: an explicit one, else [default] when resuming
    (a resume needs a stable path), else none. *)

val arm_chaos : t -> unit
(** Arm the resolved {!Host_chaos} plan; a no-op when [chaos] is
    empty. *)
