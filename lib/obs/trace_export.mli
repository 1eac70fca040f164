(* Chrome trace-event JSON export of the recorded probe stream, plus
   the validator CI gates on and the --hist console report. *)

val write : out_channel -> unit
val write_file : string -> unit

(* Well-formedness + per-track timestamp monotonicity.  Ok n = number
   of events checked. *)
val validate : string -> (int, string) result
val validate_file : string -> (int, string) result

(* Retire-age percentiles and per-primitive cost attribution. *)
val report_hist : Format.formatter -> unit

(* The --trace FILE / --hist switches every front end shares: start the
   probes as asked ([threads] sizes the initial ring table), run [f],
   print the histogram report when histograms are on, then write and
   validate the trace.  The flag is false when the trace is invalid. *)
val observe :
  trace:string option -> hist:bool -> threads:int -> (unit -> 'a) -> 'a * bool
