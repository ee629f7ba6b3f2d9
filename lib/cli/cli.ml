(* Command-line terms shared by the two front ends (see cli.mli). *)

open Cmdliner
module R = Minjie.Run_config

(* a malformed MINJIE_* value or class name is a usage error naming
   it, raised before the command does any work *)
let resolved f =
  match f () with v -> `Ok v | exception Invalid_argument msg -> `Error (false, msg)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Forked pool workers (default: MINJIE_JOBS, else 1).")

let ref_arg ~doc =
  let ref_conv =
    Arg.enum [ ("iss", Minjie.Ref_model.Iss); ("nemu", Minjie.Ref_model.Nemu) ]
  in
  Arg.(value & opt (some ref_conv) None & info [ "ref" ] ~docv:"REF" ~doc)

let seed_arg ~doc = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let smoke_arg ~doc = Arg.(value & flag & info [ "smoke" ] ~doc)

let run_config ?(jobs = Term.const None) () =
  Term.(ret (const (fun jobs -> resolved (fun () -> R.resolve ?jobs ())) $ jobs))

let harness ?(ref_kind = Term.const None) ?(chaos = Term.const ([], None)) () =
  let retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Supervised retry budget per failed job (default: \
             MINJIE_RETRIES, else 0).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Journal completed jobs to $(docv) (checksummed, fsynced \
             append-only log).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay a matching journal and run only the missing jobs; \
             output is byte-identical to an uninterrupted run (default: \
             MINJIE_RESUME).")
  in
  let resolve jobs retries journal resume ref_kind (chaos, chaos_seed) =
    resolved (fun () ->
        let chaos =
          match chaos with
          | [] -> None
          | names -> Some (Minjie.Host_chaos.classes_of_names names)
        in
        ( R.resolve ?jobs ?retries
            ?resume:(if resume then Some true else None)
            ?ref_kind ?chaos ?chaos_seed (),
          journal ))
  in
  Term.(
    ret
      (const resolve $ jobs_arg $ retries $ journal $ resume $ ref_kind $ chaos))

let main cmd =
  (* SIGINT/SIGTERM: kill and reap every pool worker, run registered
     cleanups, exit 130/143 -- no orphans, no torn files *)
  Minjie.Pool.install_signal_handlers ();
  (* usage errors (unknown subcommand, bad flags, malformed variables)
     report on stderr -- which Cmdliner already does -- and exit 2,
     not Cmdliner's default 124 *)
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok ()) | Ok `Version | Ok `Help -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)
