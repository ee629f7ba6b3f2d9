(* The run's configuration, resolved at the edge (see run_config.mli). *)

type t = {
  jobs : int;
  retries : int;
  resume : bool;
  ref_kind : Ref_model.kind option;
  phase_order : Xiangshan.Core.phase_order;
  chaos : Host_chaos.fault_class list;
  chaos_seed : int;
}

(* the one place MINJIE_* variables are read.  [parse] gets the trimmed
   value and returns [None] to refuse it. *)
let from_env name parse want =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> (
      match String.trim s with
      | "" -> None
      | v -> (
          match parse v with
          | Some x -> Some x
          | None -> invalid_arg (Printf.sprintf "%s=%S (want %s)" name s want)))

let int_at_least lo v =
  match int_of_string_opt v with Some n when n >= lo -> Some n | _ -> None

let bool_of_string v =
  match String.lowercase_ascii v with
  | "1" | "true" | "on" | "yes" -> Some true
  | "0" | "false" | "off" | "no" -> Some false
  | _ -> None

(* A value outside the accepted forms is refused rather than read as
   the default: a typo must not turn a shuffled run into a plain one. *)
let phase_order_of_string = function
  | "default" -> Some Xiangshan.Core.Default_order
  | "shuffle" -> Some (Xiangshan.Core.Shuffle 1)
  | s when String.starts_with ~prefix:"shuffle:" s ->
      Option.map
        (fun seed -> Xiangshan.Core.Shuffle seed)
        (int_of_string_opt (String.sub s 8 (String.length s - 8)))
  | _ -> None

(* a comma-separated class list; the registry's own message names the
   bad class *)
let chaos_of_string v =
  let names =
    String.split_on_char ',' v |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  try Some (Host_chaos.classes_of_names names)
  with Invalid_argument msg -> invalid_arg ("MINJIE_CHAOS: " ^ msg)

let resolve ?jobs ?retries ?resume ?ref_kind ?chaos ?chaos_seed () =
  let pick explicit name parse want default =
    match explicit with
    | Some v -> v
    | None -> Option.value (from_env name parse want) ~default
  in
  {
    jobs = max 1 (pick jobs "MINJIE_JOBS" (int_at_least 1) "a positive integer" 1);
    retries =
      max 0 (pick retries "MINJIE_RETRIES" (int_at_least 0) "an integer >= 0" 0);
    resume =
      pick resume "MINJIE_RESUME" bool_of_string
        "0/false/off/no or 1/true/on/yes" false;
    ref_kind =
      (match ref_kind with
      | Some _ -> ref_kind
      | None -> from_env "MINJIE_REF" Ref_model.kind_of_string "iss|nemu");
    phase_order =
      pick None "MINJIE_PHASE_ORDER" phase_order_of_string
        "default, shuffle or shuffle:SEED" Xiangshan.Core.Default_order;
    chaos = pick chaos "MINJIE_CHAOS" chaos_of_string "a chaos class list" [];
    chaos_seed =
      pick chaos_seed "MINJIE_CHAOS_SEED" int_of_string_opt "an integer" 1;
  }

let journal t ~default = function
  | Some path -> Some path
  | None -> if t.resume then Some default else None

let arm_chaos t =
  if t.chaos <> [] then Host_chaos.arm ~seed:t.chaos_seed t.chaos
