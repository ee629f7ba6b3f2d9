(* Coverage-guided fuzz campaign driver (see fuzz.mli).

   Rounds of mutate -> run -> merge -> rank, each round one batch of
   the campaign's Minjie.Grid (only Done results reach the journal;
   resumed execs replay in grid order), so a SIGKILLed campaign
   resumed with --resume produces byte-identical output.

   Determinism inventory: every candidate derives its own rng from
   (campaign seed, round, candidate) through an avalanche mix (the
   generator's rng collides on low-bit-only variation); corpus picks
   and mutation plans consume only that rng; planning for round R sees
   exactly the corpus/coverage state after folding rounds < R, which a
   resume reconstructs from the journal; and exec records carry no
   wall-clock fields. *)

module Coverage = Coverage
module Mutate = Mutate
module Corpus = Corpus
module Testgen = Workloads.Testgen

type params = {
  fz_seed : int;
  fz_rounds : int;
  fz_cands : int;  (* candidates per round *)
  fz_blocks : int;
  fz_block_len : int;
  fz_corpus_cap : int;
  fz_max_cycles : int;
  fz_snapshot_interval : int;
  fz_configs : string list;
  fz_refs : Minjie.Ref_model.kind list;
  fz_fault : string option;
}

let default =
  {
    fz_seed = 1;
    fz_rounds = 6;
    fz_cands = 6;
    fz_blocks = 8;
    fz_block_len = 10;
    fz_corpus_cap = 32;
    fz_max_cycles = 60_000;
    fz_snapshot_interval = 2_000;
    fz_configs = [ "YQH"; "NH"; "NH-4core" ];
    fz_refs = [ Minjie.Ref_model.Iss; Minjie.Ref_model.Nemu ];
    fz_fault = None;
  }

let smoke =
  {
    default with
    fz_rounds = 2;
    fz_cands = 3;
    fz_blocks = 4;
    fz_block_len = 6;
    fz_max_cycles = 20_000;
    fz_configs = [ "YQH"; "NH" ];
  }

type exec = {
  x_round : int;
  x_cand : int;
  x_parent : int;  (* corpus entry id; -1 = fresh generator seed *)
  x_seed : int;
  x_ops : string;  (* Mutate.ops_to_string *)
  x_cfg : string;
  x_ref : string;
  x_verified : bool;
  x_exit : int;  (* exit code when verified; -1 mismatch; -2 pool *)
  x_cycles : int;
  x_rule : string;  (* detection rule on a mismatch *)
  x_replayed : bool;  (* LightSSS replay reproduced the mismatch *)
  x_replay_rule : string;
  x_msg : string;
  x_counters : (string * int) list;
}

type round_stat = {
  rs_round : int;
  rs_execs : int;
  rs_new_points : int;
  rs_points : int;
  rs_cells : int;
  rs_corpus : int;
  rs_mismatches : int;
}

type summary = {
  fz_round_stats : round_stat list;
  fz_execs : exec list;  (* grid order: round-major, candidate-minor *)
  fz_points : int;
  fz_cells : int;
  fz_corpus : int;
  fz_mismatches : int;
  fz_coverage : (string * int) list;
  fz_resumed : int;
  fz_retried : int;
  fz_recovered : int;
}

let config_of_name name : Xiangshan.Config.t =
  let module C = Xiangshan.Config in
  match String.lowercase_ascii name with
  | "yqh" -> C.yqh
  | "nh" -> C.nh
  | "nh1" | "nh-1core" -> C.nh_single
  | "nh4" | "nh-4core" -> C.nh4
  | _ -> (
      match List.find_opt (fun c -> c.C.cfg_name = name) C.all_presets with
      | Some c -> c
      | None -> invalid_arg (Printf.sprintf "Fuzz: unknown config %S" name))

(* splitmix-style avalanche: candidate rngs must differ in high bits
   because Testgen.rng_of_seed ORs bit 0 into the seed *)
let derive seed ~round ~cand =
  let open Int64 in
  let z =
    add (of_int seed)
      (add
         (mul (of_int (round + 1)) 0x9E3779B97F4A7C15L)
         (mul (of_int (cand + 1)) 0xBF58476D1CE4E5B9L))
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0x94D049BB133111EBL in
  to_int (logxor z (shift_right_logical z 31)) land Stdlib.max_int

(* --- one candidate execution ----------------------------------------- *)

type cand_plan = {
  p_round : int;
  p_cand : int;
  p_parent : int;
  p_seed : int;
  p_ops : Mutate.op list;
  p_cfg : string;
  p_ref : Minjie.Ref_model.kind;
}

(* an exec that has not run: the shape every result starts from *)
let blank_exec (c : cand_plan) =
  {
    x_round = c.p_round;
    x_cand = c.p_cand;
    x_parent = c.p_parent;
    x_seed = c.p_seed;
    x_ops = Mutate.ops_to_string c.p_ops;
    x_cfg = (config_of_name c.p_cfg).Xiangshan.Config.cfg_name;
    x_ref = Minjie.Ref_model.kind_name c.p_ref;
    x_verified = false;
    x_exit = -1;
    x_cycles = 0;
    x_rule = "";
    x_replayed = false;
    x_replay_rule = "";
    x_msg = "";
    x_counters = [];
  }

let run_exec (p : params) (c : cand_plan) : exec =
  let cfg = config_of_name c.p_cfg in
  let ir =
    Testgen.generate ~seed:c.p_seed ~blocks:p.fz_blocks
      ~block_len:p.fz_block_len ()
  in
  let ir = Mutate.apply_all ir c.p_ops in
  let prog = Testgen.to_asm ~smp:(cfg.Xiangshan.Config.n_cores > 1) ir in
  let inject =
    Option.map
      (fun name ->
        let f = Minjie.Fault.find name in
        (* the registry's triggers are tuned to the campaign's long
           workloads; fuzz programs retire in a few thousand cycles,
           so cap the trigger well inside the cycle budget or the
           corruption lands after the program has already exited *)
        let trigger = min f.Minjie.Fault.f_trigger (p.fz_max_cycles / 40) in
        fun soc -> f.Minjie.Fault.f_install ~seed:c.p_seed ~trigger soc)
      p.fz_fault
  in
  let outcome, counters =
    Minjie.Workflow.run_collect ~snapshot_interval:p.fz_snapshot_interval
      ~max_cycles:p.fz_max_cycles ?inject ~ref_kind:c.p_ref ~prog cfg
  in
  let cycles =
    Option.value (List.assoc_opt "core.cycles" counters)
      ~default:p.fz_max_cycles
  in
  let base = { (blank_exec c) with x_cycles = cycles; x_counters = counters } in
  match outcome with
  | Minjie.Workflow.Verified code -> { base with x_verified = true; x_exit = code }
  | Minjie.Workflow.Debugged r ->
      let f = r.Minjie.Workflow.first_failure in
      {
        base with
        x_rule = f.Minjie.Rule.f_rule;
        x_replayed = r.Minjie.Workflow.replay_failure <> None;
        x_replay_rule =
          (match r.Minjie.Workflow.replay_failure with
          | Some rf -> rf.Minjie.Rule.f_rule
          | None -> "");
        x_msg = Minjie.Rule.string_of_failure f;
      }

let exec_of_failure c msg = { (blank_exec c) with x_exit = -2; x_msg = "POOL: " ^ msg }

(* The journal key encodes the campaign's identity: a journal written
   by a different seed, grid, budget or fault set never splices in. *)
let journal_key (p : params) =
  Printf.sprintf
    "fuzz|seed=%d|rounds=%d|cands=%d|blocks=%d|bl=%d|cap=%d|mc=%d|si=%d|cfgs=%s|refs=%s|fault=%s"
    p.fz_seed p.fz_rounds p.fz_cands p.fz_blocks p.fz_block_len p.fz_corpus_cap
    p.fz_max_cycles p.fz_snapshot_interval
    (String.concat "," p.fz_configs)
    (String.concat "," (List.map Minjie.Ref_model.kind_name p.fz_refs))
    (match p.fz_fault with None -> "none" | Some f -> f)

let is_mismatch (e : exec) = e.x_rule <> ""

let run ?(p = default) ?jobs ?journal ?(resume = false) ?retries ?timeout
    ?corpus_path ?(progress = fun (_ : exec) -> ()) () : summary =
  if p.fz_configs = [] then invalid_arg "Fuzz.run: empty config list";
  if p.fz_refs = [] then invalid_arg "Fuzz.run: empty REF list";
  let ncfg = List.length p.fz_configs and nref = List.length p.fz_refs in
  let grid_cell idx =
    (List.nth p.fz_configs (idx mod ncfg), List.nth p.fz_refs (idx / ncfg mod nref))
  in
  (* completed (round, cand) execs replay from the journal; a resumed
     campaign re-attempts everything else *)
  let g =
    Minjie.Grid.create ?journal ~resume ~key:(journal_key p) (fun e ->
        (e.x_round, e.x_cand))
  in
  let cov = Coverage.create () in
  let corpus = Corpus.create ~cap:p.fz_corpus_cap in
  let all_execs = ref [] and round_stats = ref [] in
  (* merge one exec into global coverage + corpus; new-coverage credit
     depends on fold order, which is always grid order *)
  let fold_exec (e : exec) =
    let m = Coverage.create () in
    Coverage.add_counters m ~axis:e.x_cfg e.x_counters;
    if is_mismatch e then Coverage.note m (e.x_cfg ^ "/detect." ^ e.x_rule) 1;
    let before = Coverage.points cov in
    Coverage.merge_into ~into:cov m;
    let new_points = Coverage.points cov - before in
    let ops = Option.value (Mutate.ops_of_string e.x_ops) ~default:[] in
    ignore
      (Corpus.admit corpus
         (Corpus.mk_entry
            ~id:((e.x_round * p.fz_cands) + e.x_cand)
            ~seed:e.x_seed ~ops ~new_points ~cycles:e.x_cycles))
  in
  for round = 0 to p.fz_rounds - 1 do
    (* plan every candidate against the pre-round corpus state (a
       resume sees the same state the interrupted run saw, because
       folding happens after the round; planning is pure, so planning
       a candidate the journal replays changes nothing) *)
    let plan_cand cand : cand_plan =
      let idx = (round * p.fz_cands) + cand in
      let r = Testgen.rng_of_seed (derive p.fz_seed ~round ~cand) in
      let cfg, refk = grid_cell idx in
      let fresh () =
        let seed = Int64.to_int (Testgen.rand64 r) land max_int in
        (-1, seed, [])
      in
      let parent, seed, ops =
        if Corpus.size corpus = 0 || Testgen.rand r 100 < 30 then fresh ()
        else
          match Corpus.pick corpus r with
          | None -> fresh ()
          | Some e ->
              let n = 1 + Testgen.rand r 2 in
              let rec draw k acc =
                if k = 0 then List.rev acc
                else draw (k - 1) (Mutate.plan r :: acc)
              in
              (e.Corpus.en_id, e.Corpus.en_seed,
               e.Corpus.en_ops @ draw n [])
      in
      {
        p_round = round;
        p_cand = cand;
        p_parent = parent;
        p_seed = seed;
        p_ops = ops;
        p_cfg = cfg;
        p_ref = refk;
      }
    in
    (* one grid job per candidate; a candidate's max-cycle budget is
       the only static cost proxy, so weight SMP configs by their hart
       count.  Results fold in candidate order, wherever each exec
       came from. *)
    let round_execs =
      Minjie.Grid.run g ?jobs ?retries ?timeout ~progress
        ~key:(fun c -> (c.p_round, c.p_cand))
        ~label:(fun c -> Printf.sprintf "r%d.c%d@%s" c.p_round c.p_cand c.p_cfg)
        ~cost:(fun c ->
          float_of_int
            ((config_of_name c.p_cfg).Xiangshan.Config.n_cores * p.fz_max_cycles))
        ~of_failure:exec_of_failure (run_exec p)
        (List.init p.fz_cands plan_cand)
    in
    let points_before = Coverage.points cov in
    List.iter fold_exec round_execs;
    all_execs := List.rev_append round_execs !all_execs;
    round_stats :=
      {
        rs_round = round;
        rs_execs = List.length round_execs;
        rs_new_points = Coverage.points cov - points_before;
        rs_points = Coverage.points cov;
        rs_cells = Coverage.cells cov;
        rs_corpus = Corpus.size corpus;
        rs_mismatches =
          List.length (List.filter is_mismatch round_execs);
      }
      :: !round_stats
  done;
  Minjie.Grid.close g;
  (match corpus_path with
  | Some path -> Corpus.save corpus ~path
  | None -> ());
  let execs = List.rev !all_execs in
  {
    fz_round_stats = List.rev !round_stats;
    fz_execs = execs;
    fz_points = Coverage.points cov;
    fz_cells = Coverage.cells cov;
    fz_corpus = Corpus.size corpus;
    fz_mismatches = List.length (List.filter is_mismatch execs);
    fz_coverage = Coverage.to_alist cov;
    fz_resumed = Minjie.Grid.resumed g;
    fz_retried = Minjie.Grid.retried g;
    fz_recovered = Minjie.Grid.recovered g;
  }

let string_of_exec (e : exec) : string =
  Printf.sprintf "r%d.c%-2d %-8s %-4s seed=%-19d ops=%-2d %s" e.x_round e.x_cand
    e.x_cfg e.x_ref e.x_seed
    (if e.x_ops = "" then 0
     else List.length (String.split_on_char ';' e.x_ops))
    (if e.x_verified then Printf.sprintf "verified (exit %d, %d cycles)"
         e.x_exit e.x_cycles
     else if e.x_rule <> "" then
       Printf.sprintf "MISMATCH [%s] replay %s" e.x_rule
         (if e.x_replayed then "[" ^ e.x_replay_rule ^ "]" else "MISSED")
     else e.x_msg)

let string_of_round (r : round_stat) : string =
  Printf.sprintf
    "round %d: %d execs, +%d points (total %d points / %d cells), corpus %d, \
     %d mismatches"
    r.rs_round r.rs_execs r.rs_new_points r.rs_points r.rs_cells r.rs_corpus
    r.rs_mismatches
