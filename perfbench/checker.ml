(* The model checker's layer, run in every traced run: bounded
   systematic exploration ([Check.explore]) of every case in
   [Scenarios.cases ()] to the case's own preemption bound, then
   [Shrink.minimize] on each witness, single-threaded.  Its cost is
   per-schedule re-execution, which neither workload's own pass
   exercises. *)

open Util
open Ibr_check

type case_run = {
  name : string;
  schedules : int;
  explore_ns : int;
  shrink_ns : int;
  ok : bool;
  verdict : string;
}

let run_case (c : Scenarios.case) =
  let name = c.scenario.Scenario.name in
  let verdict, explore_ns =
    timed (fun () ->
      Spans.with_span ("Check.explore " ^ name) (fun _ ->
        Check.explore ~bound:c.bound c.scenario))
  in
  let schedules =
    match verdict with
    | Check.Certified { schedules; _ }
    | Check.Witness { schedules; _ }
    | Check.Exhausted { schedules } -> schedules
  in
  let ok, shrink_ns, what =
    match verdict, c.expect with
    | Check.Certified _, Scenarios.Safe -> (true, 0, "certified")
    | Check.Witness w, Scenarios.Faulty ->
      let res, ns =
        timed (fun () ->
          Spans.with_span ("Shrink.minimize " ^ name) (fun _ ->
            match Shrink.minimize c.scenario w.trace with
            | mini -> Ok mini
            | exception e -> Error (Printexc.to_string e)))
      in
      (match res with
       | Ok (tr, _) ->
         (true, ns, Printf.sprintf "witness, shrunk to %d switches" (Trace.switches tr))
       | Error e -> (false, ns, "witness, shrink failed: " ^ e))
    | Check.Certified _, Scenarios.Faulty -> (false, 0, "certified but expected a witness")
    | Check.Witness w, Scenarios.Safe -> (false, 0, "spurious witness: " ^ w.failure)
    | Check.Exhausted _, _ -> (false, 0, "budget exhausted")
  in
  { name; schedules; explore_ns; shrink_ns; ok; verdict = what }

let sum f p = Array.fold_left (fun n r -> n + f r) 0 p
let pass_ns p = sum (fun r -> r.explore_ns + r.shrink_ns) p

(* Two passes over the suite (every eighth case when [quick]).  Every
   case must meet its expectation (Safe certified, Faulty witnessed
   and shrunk) and the schedule total must repeat exactly; both checks
   go into [cs].  The timings come from the faster pass. *)
let suite cs ~quick =
  let cases = Array.of_list (Scenarios.cases ()) in
  let cases =
    if quick then Array.of_list (List.filteri (fun i _ -> i mod 8 = 0) (Array.to_list cases))
    else cases
  in
  let passes =
    List.init 2 (fun i ->
      Gc.full_major ();
      let p = Spans.with_span "check-pass" (fun _ -> Array.map run_case cases) in
      Printf.printf "  check pass %d: %d cases, %d schedules, %.3f s\n%!" i
        (Array.length p) (sum (fun r -> r.schedules) p)
        (float_of_int (pass_ns p) /. 1e9);
      p)
  in
  let bad =
    List.concat_map (fun p -> List.filter (fun r -> not r.ok) (Array.to_list p)) passes
  in
  List.iter (fun r -> Printf.printf "  mismatch %s: %s\n" r.name r.verdict) bad;
  check cs ~count:(List.length bad) "check-expectations" (bad = [])
    (Printf.sprintf "%d case runs off expectation (Safe must certify, Faulty must \
                     yield a witness)" (List.length bad));
  let totals = List.map (sum (fun r -> r.schedules)) passes in
  check cs "check-schedules-repeat"
    (List.for_all (( = ) (List.hd totals)) totals)
    (String.concat ", " (List.map string_of_int totals));
  let p =
    List.fold_left (fun a b -> if pass_ns b < pass_ns a then b else a)
      (List.hd passes) passes
  in
  let schedules = sum (fun r -> r.schedules) p in
  [
    m "check.schedules" "count" (float_of_int schedules);
    m "check.us_per_schedule" "us"
      (fratio (sum (fun r -> r.explore_ns) p) schedules /. 1e3);
    m "check.shrink_s" "s" (float_of_int (sum (fun r -> r.shrink_ns) p) /. 1e9);
  ]
