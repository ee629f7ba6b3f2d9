(* Harness knobs resolved at the edge (see run_config.mli). *)

type t = { jobs : int; retries : int; resume : bool }

(* the one place these variables are read *)
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

let resolve ?jobs ?retries ?resume () =
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
  }

let journal t ~default = function
  | Some path -> Some path
  | None -> if t.resume then Some default else None

let arm_chaos ?(seed = 1) = function
  | [] ->
      Option.iter
        (fun (seed, classes) -> Host_chaos.arm ~seed classes)
        (Host_chaos.env_plan ())
  | names -> Host_chaos.arm ~seed (Host_chaos.classes_of_names names)
