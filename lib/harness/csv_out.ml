(* CSV output, matching the artifact's workflow of dumping rows and
   post-processing externally.  The row header is derived from the
   metric registry (via [Stats.csv_header]), so new metrics appear
   here without touching this file.  Renderers return the file's
   contents; the campaign runner decides where (and whether) to write
   them. *)

let lines ls = String.concat "" (List.map (fun l -> l ^ "\n") ls)

let rows rs = lines (Stats.csv_header () :: List.map Stats.to_csv_row rs)

let rows_tagged rs =
  lines (Stats.csv_header_tagged () :: List.map Stats.to_csv_row_tagged rs)

(* A figure as tidy CSV: fig_id,series,x,y. *)
let figure (fig : Chart.figure) =
  lines
    ("fig,series,threads,value"
     :: List.concat_map
          (fun (s : Chart.series) ->
             List.map
               (fun (x, y) ->
                  Printf.sprintf "%s,%s,%d,%.6f" fig.fig_id s.label x y)
               s.points)
          fig.series)

let append path ~header row =
  let existed = Sys.file_exists path in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
    output_string oc (lines (if existed then [ row ] else [ header; row ])));
  Fmt.pr "appended to %s@." path
