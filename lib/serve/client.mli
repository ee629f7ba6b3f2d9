(** Client side of the `minjie serve` protocol: a blocking
    one-request / one-reply connection, plus deterministic result
    rendering shared by `minjie submit` and the CI byte-diff smoke.

    Rendering is free of wall-clock and host-dependent fields by
    construction (the results themselves are; see {!Proto}), so the
    rendered text for a served result is byte-identical to the
    rendered text for its cold-start equivalent. *)

type t

val connect : string -> t
(** Connect to a server socket path.  Ignores SIGPIPE process-wide
    (dropped connections surface as exceptions, not death). *)

val close : t -> unit

val request : t -> Proto.request -> Proto.reply
(** One round trip.  For [Submit] the reply arrives only when the job
    has a result, so this blocks for the job's duration.
    @raise Proto.Frame_error if the server hangs up or the stream is
    corrupt. *)

val submit : ?retries:int -> t -> Proto.job_spec -> Proto.reply
(** [request] for a [Submit], retrying up to [retries] (default 0)
    times, 0.2 s apart, on a {!Proto.Busy} reply. *)

val submit_nowait : t -> Proto.job_spec -> unit
(** Fire a [Submit] frame without waiting for the reply — the
    disconnect-mid-job tests use this to abandon a running job. *)

val read_reply : t -> Proto.reply
(** Block until the next reply frame arrives (pairs with
    {!submit_nowait}).
    @raise Proto.Frame_error if the server hangs up. *)

val wait_ready : ?timeout:float -> string -> bool
(** Poll a socket path with [Ping] until the server answers [Pong],
    or [timeout] (default 10s) elapses. *)

val render_result : Proto.job_result -> string
(** Deterministic multi-line rendering of a job result. *)
