(* The generic half of the benchmark front end: one way to print a
   campaign's outcome, write its files and gate the exit status on its
   checks, so no campaign hand-rolls its own. *)

type report = {
  title : string;
  body : string;
  checks : Experiment.check list;
  files : (string * string) list;
}

type entry = { name : string; doc : string; run : run }
and run = Campaign of (quick:bool -> report) | Group of string list

let rec resolve registry name =
  match List.find_opt (fun (e : entry) -> e.name = name) registry with
  | None -> invalid_arg (Printf.sprintf "Campaign.resolve: unknown %S" name)
  | Some { run = Campaign f; _ } -> [ f ]
  | Some { run = Group names; _ } -> List.concat_map (resolve registry) names

let check_line (c : Experiment.check) =
  Printf.sprintf "%s: %s%s"
    (if c.holds then "PASS" else "FAIL")
    c.claim
    (if c.detail = "" then "" else " (" ^ c.detail ^ ")")

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
    output_string oc contents)

let print ?out_dir r =
  Fmt.pr "== %s ==@.%s@." r.title r.body;
  if r.checks <> [] then begin
    List.iter (fun c -> Fmt.pr "%s@." (check_line c)) r.checks;
    Fmt.pr "@."
  end;
  Option.iter
    (fun dir ->
       if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
       List.iter
         (fun (name, contents) ->
            let path = Filename.concat dir name in
            write_file path contents;
            Fmt.pr "wrote %s@." path)
         r.files)
    out_dir;
  List.for_all (fun (c : Experiment.check) -> c.holds) r.checks

let run ?out_dir ~quick registry names =
  let ok =
    List.fold_left
      (fun ok campaign -> print ?out_dir (campaign ~quick) && ok)
      true
      (List.concat_map (resolve registry) names)
  in
  if ok then 0 else 1
