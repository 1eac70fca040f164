(* The sim-oversub workload: the discrete-event simulator running the
   paper's oversubscribed Fig. 8/9 regime (96 simulated threads on 72
   simulated cores, default stall injection, write-dominated hashmap
   under 2GEIBR) to a fixed virtual horizon, through [Runner_sim.run].

   The rideable is wrapped so the benchmark sees every map call from
   outside: it samples the wall time of one call in 16 (every call in
   a traced run) and notes when the measured phase starts — the
   engine registers one handle for prefill, then each worker fiber
   registers its own, so the second [register] ends set-up. *)

open Util
module RS = Ibr_harness.Runner_sim
module Probe = Ibr_obs.Probe

let threads = 96
let cores = 72
let horizon quick = if quick then 50_000 else 100_000
let sample_mask = 15

(* A map call on this configuration makes under 30 scheduler steps
   ([Hooks.step], counted machine-wide by [Hooks.global_now]).  A call
   that was descheduled also spans at least a slice of other simulated
   threads, over 200 steps; its wall time is theirs as much as its own,
   so it is not a latency sample. *)
let max_own_steps = 100

(* Observation state of the current run. *)
let registers = ref 0
let measure_start = ref 0
let charges_at_start : (Probe.cost_kind * int * int) list ref = ref []
let calls = ref 0
let lat = Array.make (1 lsl 18) 0
let lat_n = ref 0
let descheduled = ref 0
let op_spans : Spans.ops option ref = ref None

let reset () =
  registers := 0;
  measure_start := 0;
  charges_at_start := [];
  calls := 0;
  lat_n := 0;
  descheduled := 0

let observe kind f =
  if !registers < 2 then f ()
  else begin
    let n = !calls in
    calls := n + 1;
    let sample = n land sample_mask = 0 in
    if sample || Option.is_some !op_spans then begin
      let steps0 = Ibr_runtime.Hooks.global_now () in
      let t0 = now_ns () in
      let r = f () in
      let d = now_ns () - t0 in
      (match !op_spans with
       | Some b -> Spans.add_op b ~kind ~start:t0 ~dur:d
       | None -> ());
      if Ibr_runtime.Hooks.global_now () - steps0 > max_own_steps then
        incr descheduled
      else if sample && !lat_n < Array.length lat then begin
        lat.(!lat_n) <- d;
        incr lat_n
      end;
      r
    end
    else f ()
  end

module Observe (S : Ibr_ds.Ds_intf.RIDEABLE) = struct
  include S

  let register t ~tid =
    incr registers;
    if !registers = 2 then begin
      measure_start := now_ns ();
      charges_at_start := Probe.charges ()
    end;
    S.register t ~tid

  let map =
    Option.map
      (fun (m : (S.t, S.handle) Ibr_ds.Ds_intf.map_ops) ->
        {
          m with
          Ibr_ds.Ds_intf.insert =
            (fun h ~key ~value ->
              observe Native.k_insert (fun () -> m.insert h ~key ~value));
          remove = (fun h ~key -> observe Native.k_remove (fun () -> m.remove h ~key));
          get = (fun h ~key -> observe Native.k_get (fun () -> m.get h ~key));
        })
      S.map
end

let config (o : Native.opts) =
  let spec =
    Ibr_harness.Workload.spec_for ~mix:Ibr_harness.Workload.write_dominated
      "hashmap"
  in
  RS.default_config ~threads ~horizon:(horizon o.quick) ~seed:o.seed ~cores
    ~spec ()

type rep = {
  seed : int;
  setup_ns : int;
  run_ns : int;
  stats : Ibr_harness.Stats.t;
  p50 : float;
  p99 : float;
  samples : int;
  descheduled : int;
  charges : (Probe.cost_kind * int) list;  (* measured phase only *)
}

let sim_ops_s r = fratio r.stats.ops r.run_ns *. 1e9

(* One full simulator run.  A full major collection first (untimed)
   keeps the previous run's structure out of this one's heap peak. *)
let run_once (o : Native.opts) =
  let module S = (val Native.rideable o.tracker) in
  let module O = Observe (S) in
  reset ();
  Gc.full_major ();
  let t0 = now_ns () in
  let stats =
    Spans.with_span "Runner_sim.run" (fun _ ->
      RS.run ~tracker_name:o.tracker ~ds_name:"hashmap" (module O) (config o))
  in
  let t1 = now_ns () in
  let charges = probe_delta !charges_at_start (Probe.charges ()) in
  let p50, p99 =
    match int_quantiles lat !lat_n [ 0.5; 0.99 ] with
    | [ a; b ] -> (a, b)
    | _ -> (0.0, 0.0)
  in
  { seed = o.seed; setup_ns = !measure_start - t0;
    run_ns = t1 - !measure_start; stats;
    p50; p99; samples = !lat_n; descheduled = !descheduled; charges }

let metric_of r name = Ibr_harness.Stats.metric r.stats name
let vthroughput r = r.stats.Ibr_harness.Stats.throughput

let describe i r =
  Printf.printf
    "rep %d: %d sim ops in %.3f s wall (%.0f ops/s), setup %.3f s, \
     vthroughput %.17g ops/Mcycle, avg_unreclaimed %.17g, peak_footprint %d, \
     faults %d, p50 %.0f ns p99 %.0f ns (%d samples, %d descheduled calls \
     not sampled)\n%!"
    i r.stats.ops (float_of_int r.run_ns /. 1e9) (sim_ops_s r)
    (float_of_int r.setup_ns /. 1e9) (vthroughput r) r.stats.avg_unreclaimed
    (metric_of r "peak_footprint") (metric_of r "faults") r.p50 r.p99 r.samples r.descheduled

(* Faults are 0 in every rep and the virtual results of every rep
   repeat those of the first rep with the same seed exactly. *)
let run_checks reps =
  let cs = new_checks () in
  let faults = List.fold_left (fun n r -> n + metric_of r "faults") 0 reps in
  check cs ~count:faults "faults" (faults = 0)
    (Printf.sprintf "%d memory faults" faults);
  let first r = List.find (fun x -> x.seed = r.seed) reps in
  let same f = List.for_all (fun r -> f r = f (first r)) reps in
  let seeds = List.sort_uniq compare (List.map (fun r -> r.seed) reps) in
  let per_seed = Printf.sprintf "%d reps over %d seeds" (List.length reps)
      (List.length seeds) in
  check cs "vthroughput-repeats" (same vthroughput) per_seed;
  check cs "avg_unreclaimed-repeats"
    (same (fun r -> r.stats.avg_unreclaimed)) per_seed;
  check cs "peak_footprint-repeats"
    (same (fun r -> metric_of r "peak_footprint")) per_seed;
  cs

let run_e2e (o : Native.opts) =
  let t0 = now_ns () in
  (* Repetitions on the map workloads' instance seeds in turn, each
     at least twice, with the reference kernel's scale around each. *)
  let inputs = Native.instances o in
  let rec reps acc =
    let i = List.length acc in
    let before = Reference.run_sim () in
    let r = run_once { o with seed = Native.instance_seed o (i mod inputs) } in
    let after = Reference.run_sim () in
    let s = Reference.scale ~nominal:Reference.sim_nominal_ns ~before ~after in
    describe i r;
    Printf.printf "  host scale %.3f\n" s;
    let acc = (r, s) :: acc in
    if i + 1 < 2 * inputs || seconds_since t0 < o.seconds then reps acc
    else List.rev acc
  in
  let scaled_reps = reps [] in
  let scaled f = median (List.map (fun (r, s) -> f r s) scaled_reps) in
  let reps = List.map fst scaled_reps in
  let cs = run_checks reps in
  let attempted = List.fold_left (fun n r -> n + r.stats.ops) 0 reps in
  {
    correct = cs.failed_checks = 0;
    attempted;
    failed = cs.failed;
    metrics =
      [
        m "ops_s" "1/s" (scaled (fun r s -> sim_ops_s r *. s));
        m "op_p50_ns" "ns" (scaled (fun r s -> r.p50 /. s));
        m "op_p99_ns" "ns" (scaled (fun r s -> r.p99 /. s));
        m "setup_s" "s" (scaled (fun r s -> float_of_int r.setup_ns /. 1e9 /. s));
      ];
  }

(* Traced run: one untraced rep, then one with spans on every call and
   Prim charges counted.  Returns the workload's per-layer metrics. *)
let run_traced (o : Native.opts) =
  let u = Spans.with_span "untraced-rep" (fun _ -> run_once o) in
  describe 0 u;
  Probe.enable_hist ();
  let t =
    Spans.with_span "traced-rep" (fun parent ->
      op_spans :=
        Some (Spans.ops_buffer ~worker:0 ~capacity:(if o.quick then 1 lsl 16 else 1 lsl 20) ~parent);
      Fun.protect ~finally:(fun () -> op_spans := None) (fun () -> run_once o))
  in
  Probe.stop ();
  describe 1 t;
  let cs = run_checks [ u; t ] in
  let ops = t.stats.ops and get = metric_of t in
  let layer =
    counter_metrics ~charges:t.charges ~charged:ops ~ops ~sweeps:(get "sweeps")
      ~examined:(get "sweep_examined") ~freed:(get "sweep_freed") ()
    @ alloc_metrics ~mag_hits:(get "mag_hits") ~mag_misses:(get "mag_misses")
        ~depot_refills:(get "depot_refills") ~ops
    @ Spans.ds_metrics ()
    @ [
        m "space.avg_unreclaimed" "blocks" t.stats.avg_unreclaimed;
        m "space.peak_footprint" "blocks" (float_of_int (get "peak_footprint"));
        m "sim.vthroughput" "ops/Mcycle" (vthroughput t);
        m "trace.overhead_frac" "frac" (1.0 -. ratio (sim_ops_s t) (sim_ops_s u));
      ]
  in
  {
    correct = cs.failed_checks = 0;
    attempted = u.stats.ops + t.stats.ops;
    failed = cs.failed;
    metrics = layer;
  }
