(** Branch prediction unit: micro-BTB + BTB, a 4-table TAGE-lite
    direction predictor, a return-address stack, an ITTAGE-lite
    indirect predictor (NH), and the confidence estimation table used
    by the PUBS issue policy (paper §IV-D). *)

type t = {
  btb : Riscv.Cow.t;
      (** every table is copy-on-write (LightSSS shares its pages).
          BTB-like tables (BTB, uBTB, ITTAGE): 16 bytes per entry,
          exact 64-bit tag at +0 and target at +8, little-endian; tag
          -1 marks an empty entry *)
  btb_sets : int;
  ubtb : Riscv.Cow.t;
  ubtb_size : int;
  bimodal : Riscv.Cow.t;
  bimodal_size : int;
  tage_tags : Riscv.Cow.t;
      (** TAGE tables, flat: entry [i] of table [k] at [k * tage_size + i] *)
  tage_ctrs : Riscv.Cow.t;
  tage_useful : Riscv.Cow.t;
  tage_size : int;
  hist_lens : int array;
  mutable ghist : int64;
  ras : Bytes.t;  (** [ras_size] unboxed 64-bit return addresses *)
  mutable ras_top : int;
  ras_size : int;
  mutable ras_depth : int;
  ittage : Riscv.Cow.t;
  ittage_size : int;
  use_ittage : bool;
  conf : Riscv.Cow.t;
  conf_size : int;
  mutable taken : bool;  (** the last {!predict}'s direction *)
  next : Bytes.t;
      (** the last {!predict}'s target, unboxed (read it with
          {!target}) *)
  mutable lookups : int;
  mutable cond_branches : int;
  mutable mispredicts : int;
  mutable misp_branch : int;
  mutable misp_jal : int;
  mutable misp_jalr : int;
  mutable misp_ret : int;
  mutable tage_provided : int;
  mutable bimodal_provided : int;
  mutable ras_pushes : int;
  mutable ras_pops : int;
  mutable ras_overflows : int;
  mutable ras_underflows : int;
}

val create : Config.t -> t

val predict : t -> pc:int64 -> insn:Riscv.Insn.t -> unit
(** Called by the IFU for every fetched instruction; updates the RAS
    speculatively on calls and returns.  Reports the prediction into
    the predictor's own fields, [taken] and {!target}, and allocates
    nothing: it is inlined at its call site, so a pc held unboxed is
    never boxed. *)

val target : t -> int64
(** The last {!predict}'s predicted next pc: the sequential [pc + 4]
    when not [taken]. *)

val update :
  t ->
  pc:int64 ->
  insn:Riscv.Insn.t ->
  taken:bool ->
  target:int64 ->
  mispredicted:bool ->
  unit
(** Resolve-time training: bimodal + TAGE provider/allocation, BTB and
    ITTAGE targets, global history, and the PUBS confidence run. *)

val corrupt_targets : t -> int
(** Fault injection: flip an address bit in every valid BTB / uBTB /
    ITTAGE target.  Pair with [Core]'s redirect suppression to turn
    the bad predictions into wrong-path commits.  Returns the number
    of entries corrupted. *)

val unconfident : t -> pc:int64 -> bool
(** PUBS: a branch is unconfident until it accumulates a run of
    correct predictions. *)

val mpki : t -> instructions:int -> float
(** Mispredictions per kilo-instruction (the paper's PUBS selection
    criterion is MPKI > 3). *)

val tables : t -> Riscv.Cow.t list
(** Every predictor table, in a fixed order (LightSSS snapshots
    these). *)

val is_call : Riscv.Insn.t -> bool

val is_ret : Riscv.Insn.t -> bool
