(** The benchmark front end's vocabulary: a campaign produces one
    {!report}; a registry of named {!entry}s maps the command line to
    campaigns; {!run} runs them, prints their reports, writes their
    files and turns their checks into the exit status.  The registry
    itself lives with the campaign bodies in [bench/]. *)

type report = {
  title : string;  (** printed as the [== title ==] section header *)
  body : string;
      (** rendered table or charts, newline-terminated; a blank line
          follows it *)
  checks : Experiment.check list;  (** printed as [PASS]/[FAIL] lines *)
  files : (string * string) list;
      (** [(file name, contents)]: written only under an output
          directory *)
}

type entry = { name : string; doc : string; run : run }

and run =
  | Campaign of (quick:bool -> report)
      (** [~quick] selects the reduced-scale variant where the campaign
          has one; others ignore it. *)
  | Group of string list  (** other entries' names, run in order *)

val resolve : entry list -> string -> (quick:bool -> report) list
(** The campaigns a name stands for, groups expanded recursively.
    @raise Invalid_argument on a name (or group member) not in the
    registry. *)

val check_line : Experiment.check -> string
(** ["PASS: claim (detail)"], or without the parenthesis when the
    detail is empty. *)

val run : ?out_dir:string -> quick:bool -> entry list -> string list -> int
(** [run registry names] runs the campaigns [names] stand for, in
    order, printing each report (header, body, check lines) and, under
    [out_dir] (created if missing), writing its files.  Exit status 0
    when every check of every report holds, 1 otherwise; every campaign
    runs even after a failure. *)
