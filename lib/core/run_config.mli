(** The harness knobs of one run, resolved once at the program's edge.

    Worker count, retry budget and resume come from a command-line flag
    when one is given, else from the [MINJIE_JOBS], [MINJIE_RETRIES]
    and [MINJIE_RESUME] environment variables, else from the defaults
    (1 worker, no retries, no resume).  Only the front ends ([bin/],
    [bench/]) call {!resolve}; the libraries take the resolved values
    as plain arguments and never read the environment for them. *)

type t = {
  jobs : int;  (** pool workers, >= 1 *)
  retries : int;  (** supervised re-runs per failed job, >= 0 *)
  resume : bool;  (** replay a matching journal *)
}

val resolve : ?jobs:int -> ?retries:int -> ?resume:bool -> unit -> t
(** Explicit arguments win over the environment, which wins over the
    defaults.  An explicit [jobs] is clamped to >= 1 and [retries] to
    >= 0.  An unset or empty variable means "not given".
    [MINJIE_RESUME] accepts [0/false/off/no] and [1/true/on/yes].
    @raise Invalid_argument naming the variable on any other value. *)

val journal : t -> default:string -> string option -> string option
(** The journal path: an explicit one, else [default] when resuming
    (a resume needs a stable path), else none. *)

val arm_chaos : ?seed:int -> string list -> unit
(** Arm the named {!Host_chaos} classes (["all"] for every class) under
    [seed] (default 1).  With no class named, [MINJIE_CHAOS] and
    [MINJIE_CHAOS_SEED] may arm a plan ({!Host_chaos.env_plan}).
    @raise Invalid_argument on an unknown class name. *)
