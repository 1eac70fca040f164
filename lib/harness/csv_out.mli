(** CSV renderings, matching the artifact's dump-rows-then-post-process
    workflow.  Each returns a whole file's contents. *)

val lines : string list -> string
(** Newline-terminated concatenation (a header line plus rows). *)

val rows : Stats.t list -> string
(** Full result rows with header. *)

val rows_tagged : Stats.t list -> string
(** {!rows} with the leading [backend] provenance column. *)

val figure : Chart.figure -> string
(** Tidy format: [fig,series,threads,value]. *)

val append : string -> header:string -> string -> unit
(** [append path ~header row] appends one row, writing [header] first
    when the file is new, and says so on stdout. *)
