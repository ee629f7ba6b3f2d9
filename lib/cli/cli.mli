(** Command-line terms shared by [minjie] and the bench harness.

    A flag beats its [MINJIE_*] variable, and both resolve through
    {!Minjie.Run_config.resolve} when the command line is evaluated,
    so a malformed value stops the program with a one-line usage error
    (exit 2) before any work starts. *)

open Cmdliner

val jobs_arg : int option Term.t
(** [--jobs N] / [-j N]. *)

val ref_arg : doc:string -> Minjie.Ref_model.kind option Term.t
(** [--ref iss|nemu]. *)

val seed_arg : doc:string -> int Term.t
(** [--seed N], default 1. *)

val smoke_arg : doc:string -> bool Term.t
(** [--smoke]. *)

val run_config : ?jobs:int option Term.t -> unit -> Minjie.Run_config.t Term.t
(** The resolved configuration of a command whose only harness flag,
    if any, is [jobs] (default: none, so every field comes from the
    environment). *)

val harness :
  ?ref_kind:Minjie.Ref_model.kind option Term.t ->
  ?chaos:(string list * int option) Term.t ->
  unit ->
  (Minjie.Run_config.t * string option) Term.t
(** The resolved configuration of a grid command, which takes
    [--jobs], [--retries], [--journal] and [--resume], plus the
    command's [--ref] and host-chaos class names and seed when given.
    The second component is the raw [--journal] path; pass it through
    {!Minjie.Run_config.journal} for the command's default. *)

val main : unit Cmd.t -> 'a
(** Install the supervisor's signal handlers, evaluate [cmd] and exit:
    0 on success or help, 2 on a usage error, 125 on an uncaught
    exception.  A command reports its own failure by calling [exit]. *)
