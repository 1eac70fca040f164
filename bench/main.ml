(* The benchmark front end: [main.exe NAME...] runs the named campaigns
   of the registry (bench/campaigns.ml) in order, [main.exe --list]
   names them.  Output is the reproduction record (see
   EXPERIMENTS.md); the exit status is 1 when any campaign's check
   fails. *)

open Cmdliner
module Campaign = Ibr_harness.Campaign

let names = List.map (fun (e : Campaign.entry) -> e.name) Campaigns.registry

let main list quick out_dir trace hist selected =
  if list then begin
    List.iter
      (fun (e : Campaign.entry) -> Fmt.pr "%-16s %s@." e.name e.doc)
      Campaigns.registry;
    `Ok 0
  end
  else if selected = [] then `Error (true, "no campaign NAME given")
  else
    (* A trace of a whole campaign is heavy but Perfetto copes; rings
       drop-oldest beyond capacity. *)
    let status, trace_ok =
      Ibr_obs.Trace_export.observe ~trace ~hist ~threads:16 (fun () ->
        Campaign.run ?out_dir ~quick Campaigns.registry selected)
    in
    `Ok (if trace_ok then status else 1)

let list =
  Arg.(value & flag & info [ "list" ] ~doc:"Name and describe every campaign.")

let quick =
  Arg.(value & flag
       & info [ "quick" ]
           ~doc:"Run each campaign's reduced-scale variant where it has one.")

let out_dir =
  Arg.(value & opt (some string) None
       & info [ "out-dir" ] ~docv:"DIR"
           ~doc:"Write each campaign's CSV/JSON files under $(docv).")

let trace =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record probe events and write a Chrome trace to $(docv).")

let hist =
  Arg.(value & flag
       & info [ "hist" ] ~doc:"Collect and print latency histograms.")

let selected =
  Arg.(value & pos_all (enum (List.map (fun n -> (n, n)) names)) []
       & info [] ~docv:"NAME"
           ~doc:("Campaigns to run, in order: " ^ String.concat ", " names))

let cmd =
  Cmd.v
    (Cmd.info "bench" ~doc:"run the paper's experiments by campaign name")
    Term.(ret (const main $ list $ quick $ out_dir $ trace $ hist $ selected))

(* A usage error (unknown flag or name, no name) names the campaigns. *)
let () =
  exit
    (match Cmd.eval_value cmd with
     | Ok (`Ok status) -> status
     | Ok (`Version | `Help) -> 0
     | Error (`Parse | `Term) ->
       Fmt.epr "valid campaign names: %s@." (String.concat ", " names);
       Cmd.Exit.cli_error
     | Error `Exn -> Cmd.Exit.internal_error)
