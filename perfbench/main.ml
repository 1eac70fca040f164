(* Entry point:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--quick] [--tracker NAME]
   Run from the repository root, through run.py, which lays the
   metrics out as BENCHMARK.json names them.  Prints human-readable
   lines, then one JSON result object as the last line of standard
   output; traced runs write their spans under [out_dir].  Exits 1 when
   an output check fails. *)

open Util

let out_dir = "perfbench/_out"

let usage () =
  prerr_endline
    "usage: main.exe --workload map-read|map-update|sim-oversub \
     --seed N --seconds S --trace 0|1 [--quick] [--tracker NAME]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and quick = ref false and tracker = ref "2GEIBR" in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--quick" :: r -> quick := true; parse r
    | "--tracker" :: v :: r -> tracker := v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let o =
    { Native.seed = !seed; seconds = !seconds; quick = !quick; tracker = !tracker }
  in
  let traced = !trace = 1 in
  Spans.enabled := traced;
  let result =
    match !workload with
    | "map-read" | "map-update" ->
      let c = if !workload = "map-read" then Native.map_read else Native.map_update in
      if traced then Ladder.traced_native c o ~out:out_dir else Native.run_e2e c o
    | "sim-oversub" ->
      if traced then Ladder.traced_sim o ~out:out_dir else Simw.run_e2e o
    | _ -> usage ()
  in
  Printf.printf "info GC heap high-water mark %.3f MB\n" (heap_peak_mb ());
  print_endline (result_json result);
  exit (if result.correct then 0 else 1)
