(** The permission scoreboard of the cache diff-rules (paper
    §III-B2b).

    Subscribes to the coherence event stream around one parent node
    and tracks, per block, the permission each child is *entitled* to
    hold based on observed Grants, Probe_acks and Releases.  Checked
    invariants: at most one child holds Trunk; a Trunk holder excludes
    any other holder.  The injected skip-probe fault produces a Grant
    Trunk while a sibling still holds permissions, which this checker
    flags. *)

type t

type violation = { v_cycle : int; v_addr : int64; v_msg : string }

val create : node:string -> children:string array -> t
(** Track the parent named [node]; [children.(i)] is the node name of
    child index [i]. *)

val observe : t -> Event.t -> unit
(** Feed one coherence event (wire the whole SoC stream here; events
    from unrelated nodes are ignored). *)

val blocks_tracked : t -> int
(** Blocks some child currently holds a permission on: a block every
    child has given up is forgotten, so this tracks the live
    footprint, not the run's. *)

val violations : t -> violation list
(** In detection order. *)

val ok : t -> bool
