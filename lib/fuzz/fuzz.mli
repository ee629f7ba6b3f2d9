(** Coverage-guided fuzz campaign over the DiffTest stack.

    Rounds of mutate -> run -> merge -> rank: each round plans a batch
    of candidate programs (fresh {!Workloads.Testgen} seeds plus
    {!Mutate} variations of the best {!Corpus} entries), runs every
    candidate under {!Minjie.Workflow.run_collect} on a rotating
    (config x REF backend) grid cell -- 1/2/4-hart configs, both
    reference backends -- folds the final counter snapshots into the
    {!Coverage} map, and admits candidates that earned new coverage
    into the corpus.  Mismatches surface as ordinary DiffTest
    verdicts, reproduced through the LightSSS replay like any other
    campaign failure.

    Determinism: every candidate derives a private rng from (campaign
    seed, round, candidate) via an avalanche mix; corpus picks and
    mutation plans consume only that rng; exec records carry no
    wall-clock fields.  The same seed therefore produces byte-
    identical summaries, a journaled run killed mid-round resumes to
    the same bytes, and pool workers only change wall-clock time. *)

module Coverage : module type of Coverage
module Mutate : module type of Mutate
module Corpus : module type of Corpus

type params = {
  fz_seed : int;
  fz_rounds : int;
  fz_cands : int;  (** candidates per round *)
  fz_blocks : int;  (** generator blocks per program *)
  fz_block_len : int;
  fz_corpus_cap : int;
  fz_max_cycles : int;  (** per-run cycle budget *)
  fz_snapshot_interval : int;  (** LightSSS interval for runs *)
  fz_configs : string list;  (** {!config_of_name} forms *)
  fz_refs : Minjie.Ref_model.kind list;
  fz_fault : string option;
      (** optional {!Minjie.Fault} model planted in every run, to
          demonstrate mismatch finds reproduce through replay *)
}

val default : params
(** 6 rounds x 6 candidates over [YQH; NH; NH-4core] x [iss; nemu]. *)

val smoke : params
(** CI-sized: 2 rounds x 3 candidates over [YQH; NH] x [iss; nemu]. *)

(** One candidate execution -- the journaled unit of work. *)
type exec = {
  x_round : int;
  x_cand : int;
  x_parent : int;  (** corpus entry id; -1 = fresh generator seed *)
  x_seed : int;
  x_ops : string;  (** {!Mutate.ops_to_string} of the history *)
  x_cfg : string;
  x_ref : string;
  x_verified : bool;
  x_exit : int;  (** exit code when verified; -1 mismatch; -2 pool *)
  x_cycles : int;
  x_rule : string;  (** detection rule on a mismatch *)
  x_replayed : bool;  (** LightSSS replay reproduced the mismatch *)
  x_replay_rule : string;
  x_msg : string;
  x_counters : (string * int) list;
}

type round_stat = {
  rs_round : int;
  rs_execs : int;
  rs_new_points : int;
  rs_points : int;  (** cumulative; monotone over rounds *)
  rs_cells : int;
  rs_corpus : int;
  rs_mismatches : int;
}

type summary = {
  fz_round_stats : round_stat list;
  fz_execs : exec list;  (** grid order: round-major, candidate-minor *)
  fz_points : int;
  fz_cells : int;
  fz_corpus : int;
  fz_mismatches : int;
  fz_coverage : (string * int) list;  (** {!Coverage.to_alist} *)
  fz_resumed : int;  (** execs replayed from the journal *)
  fz_retried : int;
  fz_recovered : int;
}

val config_of_name : string -> Xiangshan.Config.t
(** Accepts preset aliases ([yqh], [nh], [nh1], [nh4], case-insensitive)
    or an exact [cfg_name] from {!Xiangshan.Config.all_presets}.
    @raise Invalid_argument on anything else. *)

val journal_key : params -> string
(** Encodes the campaign identity; a journal written under different
    parameters never splices into a resumed run. *)

val is_mismatch : exec -> bool

val run :
  ?p:params ->
  ?jobs:int ->
  ?journal:string ->
  ?resume:bool ->
  ?retries:int ->
  ?timeout:float ->
  ?corpus_path:string ->
  ?progress:(exec -> unit) ->
  unit ->
  summary
(** Run the campaign: each round is one {!Minjie.Grid.run} batch over
    one journal.  [jobs] (default 1), [retries] (default 0) and
    [timeout] drive the grid exactly as in {!Minjie.Campaign.run}; a
    candidate whose job raises, crashes or times out becomes an
    [x_exit = -2] exec, at [jobs = 1] exactly as at [jobs = N].
    [journal] with [resume:true] continues a killed campaign without
    re-running journaled execs; [corpus_path] persists the final corpus
    via {!Corpus.save}.  [progress] fires once per exec (journal
    replays included). *)

(** A planned candidate: everything {!run_exec} needs, no rng. *)
type cand_plan = {
  p_round : int;
  p_cand : int;
  p_parent : int;
  p_seed : int;
  p_ops : Mutate.op list;
  p_cfg : string;
  p_ref : Minjie.Ref_model.kind;
}

val run_exec : params -> cand_plan -> exec
(** Run one planned candidate in-process (the pool job body). *)

val string_of_exec : exec -> string
val string_of_round : round_stat -> string
