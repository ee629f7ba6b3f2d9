(** Crash-safe result journaling: a checksummed, append-only
    write-ahead journal of per-cell results.

    A multi-hour campaign SIGKILLed at cell k used to lose every
    completed cell; with a journal, {!Campaign.run}[ ~resume] replays
    the completed prefix on startup and recomputes only the rest --
    and because cells are deterministic, the resumed run's final
    output is byte-identical to an uninterrupted one.

    On-disk format: an 8-byte magic, then a framed key string, then
    framed records.  Every frame is [length (4B LE) | crc32 (4B LE) |
    payload], the payload being [Marshal] bytes; each append is a
    single [write] followed by [fsync], so a crash can only ever leave
    a {e torn tail} -- never a corrupt interior.  Replay stops at the
    first frame that is short, oversized, or fails its CRC, and
    {!open_} truncates that tail away before appending resumes.  A
    missing file, foreign magic, or mismatched key starts an empty
    journal (a resume key encodes the run's identity: grid, REF,
    intervals -- so a stale journal of a different run is ignored, not
    half-applied).

    Payloads go through [Marshal], so as with {!Pool} results the
    caller must read back the same type it wrote. *)

type t

val open_ : path:string -> key:string -> t * 'a list
(** Open (or create) the journal at [path] for appending, replaying
    the valid records of a matching-key journal and truncating any
    torn tail.  Returns the writer plus the replayed records in append
    order. *)

val append : t -> 'a -> unit
(** Append one record: a single atomic frame write, fsynced before
    return.  Never raises: a write failure (ENOSPC and friends, or the
    {!Host_chaos} injector) prints one warning and degrades the
    journal to inactive -- the run continues unjournaled rather than
    aborting. *)

val active : t -> bool
(** [false] once a write failure has degraded the journal. *)

val appended : t -> int
(** Records successfully appended through this writer. *)

val sync : t -> unit
(** Re-fsync the journal fd (appends already fsync; this is for
    shutdown paths).  No-op on a degraded journal. *)

val close : t -> unit

val scan : path:string -> string option * 'a list
(** Read-only replay: the stored key (or [None] if the file is
    missing/foreign) and the valid record prefix.  Never raises on a
    torn or corrupt file and never modifies it. *)

val atomic_write_file : path:string -> string -> unit
(** Write a whole file atomically: sibling temp file, fsync, rename
    over [path].  A crash mid-write leaves the old file (or no file),
    never a torn one.  Used for checkpoints, ArchDB dumps and bench
    JSON. *)

val crc32 : string -> int32
(** The CRC-32 (IEEE 802.3) used by the frame format; exposed for
    tests. *)
