(* The campaign registry: every experiment the benchmark front end can
   run, one named entry each.  Two layers:

   1. Bechamel microbenchmarks ([native]) — *native* wall-clock cost of
      data-structure operations under each reclamation scheme (the
      single-thread instruction-overhead component of Fig. 8), one
      Test.make per (figure panel x scheme), plus ablation kernels
      (empty_freq sweep, sweep predicate).  These run the real code
      with the cost-model hooks inactive.

   2. The discrete-event reproduction of every figure (Fig. 7 table,
      Fig. 8a-d and 9a-d sweeps, Fig. 10, with the A.6 acceptance
      checks), the ablations of DESIGN.md §4, and the robustness,
      profile, service and BENCH campaigns.

   Each campaign returns a [Campaign.report]; [Campaign.run] prints it,
   writes its files under --out-dir and gates the exit status on its
   checks.  EXPERIMENTS.md is the record of the outputs. *)

open Bechamel
open Toolkit
module E = Ibr_harness.Experiment
module Stats = Ibr_harness.Stats
module Csv_out = Ibr_harness.Csv_out

let report ?(checks = []) ?(files = []) title body =
  { Ibr_harness.Campaign.title; body; checks; files }

let check claim holds detail = { E.claim; holds; detail }

let ops_per_run = 64

(* A native workload kernel: [ops_per_run] mixed operations against a
   prefilled structure.  The structure persists across runs; the
   balanced mix keeps its size stationary. *)
let make_kernel (module S : Ibr_ds.Ds_intf.RIDEABLE) =
  let m = Option.get S.map in
  let threads = 1 in
  let cfg = Ibr_core.Tracker_intf.default_config ~threads () in
  let t = S.create ~threads cfg in
  let h = S.register t ~tid:0 in
  let key_range = 1024 in
  let rng = Ibr_runtime.Rng.create 0xdead in
  for k = 0 to key_range - 1 do
    if k mod 4 <> 3 then ignore (m.insert h ~key:k ~value:k)
  done;
  Staged.stage (fun () ->
    for _ = 1 to ops_per_run do
      let k = Ibr_runtime.Rng.int rng key_range in
      match Ibr_runtime.Rng.int rng 3 with
      | 0 -> ignore (m.insert h ~key:k ~value:k)
      | 1 -> ignore (m.remove h ~key:k)
      | _ -> ignore (m.contains h ~key:k)
    done)

let figure_tests fig_id ds_name =
  let maker = Ibr_ds.Ds_registry.find_exn ds_name in
  List.filter_map
    (fun (e : Ibr_core.Registry.entry) ->
       if Ibr_ds.Ds_registry.compatible maker e.tracker then
         Some
           (Test.make
              ~name:(Printf.sprintf "%s:%s:%s" fig_id ds_name e.name)
              (make_kernel (maker.instantiate e.tracker)))
       else None)
    Ibr_core.Registry.paper_set

(* Ablation: empty_freq (k) native cost. *)
let ksweep_tests () =
  List.map
    (fun k ->
       let maker = Ibr_ds.Ds_registry.find_exn "hashmap" in
       let tracker = (Ibr_core.Registry.find_exn "2GEIBR").tracker in
       let (module S : Ibr_ds.Ds_intf.RIDEABLE) = maker.instantiate tracker
       in
       let m = Option.get S.map in
       let kernel =
         let threads = 1 in
         let cfg =
           { (Ibr_core.Tracker_intf.default_config ~threads ()) with
             empty_freq = k } in
         let t = S.create ~threads cfg in
         let h = S.register t ~tid:0 in
         let rng = Ibr_runtime.Rng.create 3 in
         for key = 0 to 1023 do
           ignore (m.insert h ~key ~value:key)
         done;
         Staged.stage (fun () ->
           for _ = 1 to ops_per_run do
             let key = Ibr_runtime.Rng.int rng 1024 in
             if Ibr_runtime.Rng.bool rng then
               ignore (m.insert h ~key ~value:key)
             else ignore (m.remove h ~key)
           done)
       in
       Test.make ~name:(Printf.sprintf "ablation:empty-freq:k=%d" k) kernel)
    [ 1; 10; 30; 50 ]

(* Ablation: old-vs-new sweep cost.  One kernel = one full sweep over
   [sweep_block_count] retired blocks (snapshot build + per-block
   conflict test), so the printed ns/op is the amortized per-block
   sweep cost.  The retired list is sized for the oversubscribed
   regime the fix targets — Fig. 9 pins ~250 blocks per sweep there.
   The linear predicate rescans the reservation table per block
   (O(threads) each); the sorted snapshot pays one O(T log T) build
   then O(log T) per block — per-block cost stays near-flat in the
   thread count (the residue is the build amortized over the list),
   which is the point of the tentpole change. *)
let sweep_block_count = 256

let sweep_ablation_tests () =
  let module TC = Ibr_core.Tracker_common in
  let block_count = sweep_block_count in
  let epoch_range = 10_000 in
  let make_blocks rng =
    Array.init block_count (fun id ->
      let b = Ibr_core.Block.make ~id id in
      let birth = 1 + Ibr_runtime.Rng.int rng epoch_range in
      Ibr_core.Block.set_birth_epoch b birth;
      Ibr_core.Block.set_retire_epoch b (birth + Ibr_runtime.Rng.int rng 64);
      b)
  in
  List.concat_map
    (fun threads ->
       let rng = Ibr_runtime.Rng.create (0x5eeb + threads) in
       (* Interval reservations (TagIBR/2GEIBR family): ~3/4 of the
          threads hold a reservation at sweep time. *)
       let res = TC.Interval_res.create threads in
       for tid = 0 to threads - 1 do
         if Ibr_runtime.Rng.int rng 4 < 3 then begin
           let lo = 1 + Ibr_runtime.Rng.int rng epoch_range in
           Atomic.set res.TC.Interval_res.lower.(tid) lo;
           Atomic.set res.TC.Interval_res.upper.(tid)
             (lo + Ibr_runtime.Rng.int rng 128)
         end
       done;
       (* Era reservations (HE): same density, one era per slot. *)
       let eras =
         Array.init (threads * 4) (fun _ ->
           if Ibr_runtime.Rng.int rng 4 < 3 then
             1 + Ibr_runtime.Rng.int rng epoch_range
           else 0)
       in
       let blocks = make_blocks rng in
       let sweep_with conflict =
         let kept = ref 0 in
         Array.iter (fun b -> if conflict b then incr kept) blocks;
         !kept
       in
       let interval kind mk =
         Test.make
           ~name:(Printf.sprintf "ablation:sweep:interval:%s:t=%d" kind
                    threads)
           (Staged.stage (fun () -> ignore (sweep_with (mk ()))))
       and era kind mk =
         Test.make
           ~name:(Printf.sprintf "ablation:sweep:era:%s:t=%d" kind threads)
           (Staged.stage (fun () -> ignore (sweep_with (mk ()))))
       in
       [ interval "linear" (fun () ->
             TC.Interval_res.conflict_with_snapshot res);
         interval "sorted" (fun () ->
             TC.Conflict.pred
               (TC.Conflict.Intervals (TC.Interval_res.sweep_snapshot res)));
         era "linear" (fun () ->
             let reserved =
               Array.to_list eras |> List.filter (fun e -> e <> 0) in
             fun b ->
               List.exists
                 (fun e ->
                    Ibr_core.Block.birth_epoch b <= e
                    && e <= Ibr_core.Block.retire_epoch b)
                 reserved);
         era "sorted" (fun () ->
             TC.Conflict.pred
               (TC.Conflict.Intervals
                  (TC.Sweep_snapshot.of_points ~none:0 eras))) ])
    [ 8; 72; 100 ]

let all_tests () =
  Test.make_grouped ~name:"ibr"
    (figure_tests "fig8a" "list"
     @ figure_tests "fig8b" "hashmap"
     @ figure_tests "fig8c" "nmtree"
     @ figure_tests "fig8d" "bonsai"
     @ ksweep_tests ()
     @ sweep_ablation_tests ())

(* Bechamel OLS estimate of each test's ns per run, sorted by name. *)
let estimates cfg tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  Hashtbl.fold
    (fun name r acc ->
       (name,
        match Analyze.OLS.estimates r with Some [ e ] -> Some e | _ -> None)
       :: acc)
    (Analyze.all ols Instance.monotonic_clock raw)
    []
  |> List.sort compare

let run_native ~quick:_ =
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~stabilize:false
      ~kde:(Some 500) () in
  (* Sweep-ablation kernels iterate over the retired list, not
     [ops_per_run] operations, so they normalize by the list size. *)
  let divisor name =
    let contains ~sub s =
      let n = String.length sub and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    float_of_int
      (if contains ~sub:"ablation:sweep" name then sweep_block_count
       else ops_per_run)
  in
  report "native per-op cost (Bechamel, monotonic clock)"
    (String.concat ""
       (Printf.sprintf "%-32s %14s\n" "benchmark" "ns/op"
        :: List.map
             (fun (name, est) ->
                match est with
                | Some e ->
                  Printf.sprintf "%-32s %14.1f\n" name (e /. divisor name)
                | None -> Printf.sprintf "%-32s %14s\n" name "-")
             (estimates cfg (all_tests ()))))

(* Charts with their tidy CSVs, plus the rows CSV of a sweep. *)
let charts ?checks ?rows title figs =
  report title ?checks
    (String.concat "" (List.map Ibr_harness.Chart.to_string figs))
    ~files:
      (List.map
         (fun (f : Ibr_harness.Chart.figure) ->
            (f.fig_id ^ ".csv", Csv_out.figure f))
         figs
       @ Option.fold ~none:[]
           ~some:(fun (name, rs) -> [ (name ^ "-rows.csv", Csv_out.rows rs) ])
           rows)

let campaign name doc f = { Ibr_harness.Campaign.name; doc; run = Campaign f }
let threads_list ~quick = if quick then Some E.quick_threads else None

let panel (ds, f8, f9) =
  campaign ("fig8-9-" ^ ds)
    (Printf.sprintf "Fig. %s/%s: %s, A.6 checks (--quick: fewer threads)" f8
       f9 ds)
    (fun ~quick ->
       let r = E.fig8_9 ?threads_list:(threads_list ~quick) ds in
       charts ("Fig. 8/9 panel: " ^ ds) [ r.throughput_fig; r.space_fig ]
         ~rows:("fig8-9-" ^ ds, r.rows)
         ~checks:(E.headline_checks r.rows))

(* Ablation: retirement backends (DESIGN.md §4).  Same seeded workload
   under List / Buckets / Gated; the telemetry table plus the CSV rows
   so CI can archive them. *)
let run_retire ~quick =
  let threads_list = if quick then [ 8; 16 ] else [ 16; 32; 48 ] in
  let rows = E.retire_backend_sweep ~threads_list () in
  report "ablation:retire (backends on hashmap)"
    (E.retire_backend_table rows)
    ~files:[ ("retire_ablation.csv", Csv_out.rows_tagged rows) ]

(* The robustness campaign (DESIGN.md §7): trackers x fault profiles x
   run lengths; the telemetry table, the acceptance checks, and the CSV
   rows.  There is no reduced variant: the stall profiles need more
   threads than simulated cores (12 on 8) or no stall ever fires and
   the stall+neutralize checks have nothing to measure. *)
let run_robust ~quick:_ =
  let rows = E.robustness_sweep () in
  report "robustness campaign (fault profiles on hashmap)"
    (E.robustness_table rows)
    ~checks:(E.robustness_checks rows)
    ~files:[ ("robustness_campaign.csv", Csv_out.rows_tagged rows) ]

(* The hardware leg of the robustness campaign: the profile subset the
   domains backend can honor (no crash injection — a crashed domain
   cannot be simulated, only a stalled one) on a short wall-clock
   ladder.  Rows carry backend=domains so archived CSVs never mix
   machines silently.  Non-deterministic, so the only check is that
   the watchdog profile ejects the parked worker. *)
let run_robust_domains ~quick:_ =
  let rows =
    E.robustness_sweep ~backend:E.Domains ~trackers:[ "EBR"; "HP"; "2GEIBR" ]
      ~profiles:E.robustness_profiles_hw ~threads:4 ~cores:4
      ~horizons:[ 60_000; 120_000 ] (* wall-clock microseconds *)
      ()
  in
  let ejections =
    List.fold_left
      (fun acc (r : Stats.t) ->
         if String.ends_with ~suffix:"+watchdog" r.tracker then
           acc + Stats.metric r "ejections"
         else acc)
      0 rows
  in
  report "robustness campaign (domains backend, wall clock)"
    (E.robustness_table rows)
    ~checks:
      [ check "wall-clock watchdog ejected the parked worker" (ejections > 0)
          (Printf.sprintf "%d ejections" ejections) ]
    ~files:[ ("robustness_domains.csv", Csv_out.rows_tagged rows) ]

(* Ablation: trace overhead.  The observability contract is
   zero-cost-when-disabled; this campaign measures both halves of it.

   Virtual: the probes never call [Hooks.step], so a traced sim run
   must be *identical* (ops, makespan, throughput) to an untraced one
   — checked exactly, which is far stronger than the <1% acceptance
   bar.  Native: the same bechamel kernel timed with probes disabled
   (the shipping path: one load + branch per emitter) and with tracing
   + histograms enabled, reporting the enabled-state slowdown. *)
let run_trace_overhead ~quick:_ =
  let sim_run () =
    let spec =
      { (Ibr_harness.Workload.spec_for "hashmap") with key_range = 512 } in
    let cfg =
      Ibr_harness.Runner_sim.default_config ~threads:8 ~horizon:60_000
        ~cores:8 ~seed:0x7ace ~spec ()
    in
    Option.get
      (Ibr_harness.Runner_sim.run_named ~tracker_name:"2GEIBR"
         ~ds_name:"hashmap" cfg)
  in
  let off = sim_run () in
  Ibr_obs.Probe.start ~threads:10 ();
  Ibr_obs.Probe.enable_hist ();
  let on = sim_run () in
  Ibr_obs.Probe.stop ();
  let identical =
    off.ops = on.ops && off.makespan = on.makespan
    && off.throughput = on.throughput
  in
  (* Native: one kernel, timed under both probe states. *)
  let measure label =
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
    in
    let kernel =
      make_kernel
        ((Ibr_ds.Ds_registry.find_exn "hashmap").instantiate
           (Ibr_core.Registry.find_exn "2GEIBR").tracker)
    in
    match estimates cfg (Test.make ~name:label kernel) with
    | [ (_, Some e) ] -> e /. float_of_int ops_per_run
    | _ -> nan
  in
  let ns_off = measure "trace:off" in
  Ibr_obs.Probe.start ~threads:2 ();
  Ibr_obs.Probe.enable_hist ();
  let ns_on = measure "trace:on" in
  Ibr_obs.Probe.stop ();
  report "ablation:trace-overhead"
    (Printf.sprintf
       "virtual: untraced ops=%d makespan=%d | traced ops=%d makespan=%d\n\
        native:  probes disabled %.1f ns/op | tracing+hist enabled %.1f \
        ns/op (%+.1f%%)\n"
       off.ops off.makespan on.ops on.makespan ns_off ns_on
       ((ns_on -. ns_off) /. ns_off *. 100.0))
    ~checks:
      [ check "tracing leaves the virtual-time run bit-identical" identical
          "" ]

(* The BENCH trajectory: background-reclamation ablation (DESIGN.md
   §9).  Each sweeping paper-set scheme runs the same seeded sim
   workload with reclamation inline (background=false) and decoupled
   through the handoff service (background=true).  A row records
   throughput, the allocator's peak footprint, and the p99 on-thread
   retire cost in virtual cycles — the [retire_cost] histogram times
   exactly the mutator-side retire path, which with the feature on is
   a queue append and with it off includes the amortized sweep.
   Virtual time makes every number deterministic, so the committed
   BENCH_6.json is byte-reproducible and tools/bench_check.exe can gate
   CI on schema and regressions. *)
let run_bench6 ~quick =
  let schemes = [ "EBR"; "QSBR"; "HP"; "HE"; "TagIBR"; "2GEIBR" ] in
  let threads = if quick then 4 else 8 in
  let horizon = if quick then 30_000 else 100_000 in
  let spec =
    { (Ibr_harness.Workload.spec_for "hashmap") with key_range = 512 } in
  Ibr_obs.Probe.enable_hist ();
  let b = Buffer.create 1024 in
  let row tracker background =
    (* One spare core beyond the mutators: the service fiber gets its
       own core, as a dedicated reclaimer thread would, and off-rows
       are unaffected (the mutators never queue either way) — so the
       ablation isolates the retire-path effect from core stealing. *)
    let cfg =
      Ibr_harness.Runner_sim.default_config ~threads ~cores:(threads + 1)
        ~horizon ~seed:0xb6 ~spec ()
    in
    let cfg =
      { cfg with
        tracker_cfg =
          { cfg.tracker_cfg with
            Ibr_core.Tracker_intf.background_reclaim = background } }
    in
    let r =
      Option.get
        (Ibr_harness.Runner_sim.run_named ~tracker_name:tracker
           ~ds_name:"hashmap" cfg)
    in
    (* The histogram was re-baselined by the runner's [begin_run], so
       this summary covers exactly the run above. *)
    let retire_p99 =
      match Ibr_obs.Probe.cost_hist () with
      | Some h ->
        let _, _, _, p99, _ = Ibr_obs.Metrics.summary h in
        p99
      | None -> 0
    in
    let peak = Stats.metric r "peak_footprint" in
    Printf.bprintf b "%-8s background=%-5b thr=%10.0f peak=%6d retire_p99=%4d\n"
      tracker background r.throughput peak retire_p99;
    Ibr_obs.Json.(
      encode
        (Obj
           [
             ("tracker", Str tracker);
             ("background", Bool background);
             ("throughput", Num r.throughput);
             ("peak_footprint", Num (float_of_int peak));
             ("retire_p99", Num (float_of_int retire_p99));
           ]))
  in
  let rows =
    List.concat_map
      (fun s ->
         let off = row s false in
         let on = row s true in
         [ off; on ])
      schemes
  in
  Ibr_obs.Probe.stop ();
  let json =
    "{\n  \"rows\": [\n"
    ^ String.concat ",\n" (List.map (fun r -> "    " ^ r) rows)
    ^ "\n  ]\n}\n"
  in
  report "bench: background-reclaim ablation (sim, deterministic)"
    (Buffer.contents b)
    ~files:[ ("BENCH_6.json", json) ]

(* The service campaign (DESIGN.md §10): every sound scheme runs the
   same open-loop profile — Poisson arrivals with the diurnal ramp and
   two spike windows, Zipf-skewed keys, a fleet of six workers churning
   through four census slots — and is held to the same SLO.  Virtual
   time makes each row deterministic, so the table in EXPERIMENTS.md §8
   is byte-reproducible.  The quick variant shrinks the horizon, not
   the shape: churn, spikes and slot reuse all still happen. *)
let run_service ~quick =
  let module Service = Ibr_harness.Service in
  let profile =
    Service.default_profile ~workers:4 ~fleet:6 ~cores:8
      ~horizon:(if quick then 60_000 else 150_000)
      ~seed:0xca11 ~spec:(Ibr_harness.Workload.spec_for "hashmap") ()
  in
  let rows =
    List.filter_map
      (fun (e : Ibr_core.Registry.entry) ->
         Service.run_named ~tracker_name:e.name ~ds_name:"hashmap" profile)
      Ibr_core.Registry.all
  in
  let missed =
    List.filter_map
      (fun (r : Service.result) ->
         if r.slo_pass then None else Some r.tracker)
      rows
  in
  let b = Buffer.create 2048 in
  Printf.bprintf b "%-12s %8s %9s %7s %7s %7s %7s %7s %8s  %s\n" "tracker"
    "arrivals" "completed" "att/det" "p50" "p90" "p99" "p999" "peak" "SLO";
  List.iter
    (fun (r : Service.result) ->
       Printf.bprintf b "%-12s %8d %9d %3d/%-3d %7d %7d %7d %7d %8d  %s\n"
         r.tracker r.arrivals r.completed r.attaches r.detaches r.p50 r.p90
         r.p99 r.p999 r.peak_footprint
         (if r.slo_pass then "PASS" else "FAIL"))
    rows;
  report "service: open-loop SLO certification (hashmap, churn)"
    (Buffer.contents b)
    ~checks:
      [ check "every scheme meets the SLO" (missed = [])
          (if missed = [] then Printf.sprintf "%d schemes" (List.length rows)
           else "missed: " ^ String.concat ", " missed) ]
    ~files:
      [ ("service_campaign.csv",
         Csv_out.lines
           (Service.csv_header :: List.map Service.to_csv_row rows)) ]

(* Remedy comparison under *live* stalls (DESIGN.md §12): the same
   open-loop service on DEBRA+, the same injected stall regime, once
   per watchdog remedy.  Ejection treats a stalled worker as dead,
   but every victim here is alive and resumes — expiring the
   reservations of one caught mid-traversal readmits use-after-free
   (unsound in general: the model checker certifies a minimal UAF
   interleaving in the neutralize_mid_op scenario, replayed in CI).
   Both runs execute in [Fault.Count] mode and report the fault tally;
   whether a fault lands in this one finite window depends on sweep
   timing, so the tally is reported, not gated.  Neutralization
   delivers a restart signal instead: the victim unwinds through
   [Ds_common.with_op], re-protects, and keeps serving — the checks
   demand zero faults, zero ejections, and at least one counted
   recovery.  Virtual time makes both rows deterministic. *)
let run_service_heal ~quick:_ =
  let module Service = Ibr_harness.Service in
  let seed = 0x43a1 and horizon = 150_000 and cores = 4 in
  let run ~neutralize =
    let profile =
      Service.default_profile ~workers:4 ~fleet:6 ~cores ~horizon ~seed
        ~watchdog:(5_000, 2) ~neutralize
        ~spec:(Ibr_harness.Workload.spec_for "list") ()
    in
    (* Stalls fire only when fibers outnumber cores; fleet=6 on 4
       cores keeps the run in the oversubscribed (live-stall)
       regime. *)
    let sched =
      Ibr_runtime.Sched.create
        { Ibr_runtime.Sched.default_config with
          cores; seed; stall_prob = 0.3; stall_len = 30_000 }
    in
    let exec = Ibr_harness.Run_engine.sim_exec ~sched ~horizon in
    Ibr_core.Fault.with_counting (fun () ->
      match
        Service.run_named_exec ~exec ~tracker_name:"DEBRA+"
          ~ds_name:"list" profile
      with
      | Some r -> r
      | None -> assert false (* DEBRA+ runs every rideable *))
  in
  let ej, ej_faults = run ~neutralize:false in
  let nt, nt_faults = run ~neutralize:true in
  let row name (r : Service.result) faults =
    Printf.sprintf "%-12s %9d %7d %7d %5d %5d %5d %7d\n" name r.completed
      r.p99 r.p999 r.ejections r.neutralizations r.recovered faults
  in
  report "service: watchdog remedy under live stalls (DEBRA+)"
    (Printf.sprintf "%-12s %9s %7s %7s %5s %5s %5s %7s\n" "remedy" "completed"
       "p99" "p999" "ejct" "ntrl" "rcvr" "faults"
     ^ row "eject" ej ej_faults
     ^ row "neutralize" nt nt_faults
     ^
     if ej_faults > 0 then
       Printf.sprintf
         "note: ejecting live workers readmitted %d memory fault(s)\n"
         ej_faults
     else "")
    ~checks:
      [
        check "eject remedy wrote off live workers (ejections > 0)"
          (ej.ejections > 0) "";
        check "neutralize remedy never ejected" (nt.ejections = 0) "";
        check "neutralize remedy signalled and healed (ntrl > 0, rcvr > 0)"
          (nt.neutralizations > 0 && nt.recovered > 0)
          "";
        check "neutralized run is fault-free" (nt_faults = 0) "";
      ]
    ~files:
      [ ("service_heal.csv",
         Csv_out.lines
           [ Service.csv_header; Service.to_csv_row ej;
             Service.to_csv_row nt ]) ]

(* The workload-diversity campaign: scheme x YCSB-like profile, each
   profile on a capability-matched rideable (see
   Experiment.profile_rideables).  Deterministic sim rows; the table is
   the one committed in EXPERIMENTS.md. *)
let run_profiles ~quick =
  let threads = if quick then 8 else 16 in
  let horizon = if quick then 30_000 else 60_000 in
  let rows = E.profile_sweep ~threads ~horizon () in
  report
    (Printf.sprintf
       "workload profiles (scheme x YCSB mix, t=%d, cells thr / space)"
       threads)
    (E.profile_table rows)
    ~files:[ ("profiles_campaign.csv", Csv_out.rows_tagged rows) ]

let figure_names =
  "fig7"
  :: List.map (fun (ds, _, _) -> "fig8-9-" ^ ds) E.panel_ids
  @ [ "fig10"; "k-sweep"; "fence"; "tagibr" ]

(* One entry per campaign; "--quick" in a doc names the reduced-scale
   variant, campaigns without one ignore the flag. *)
let registry =
  let c = campaign in
  let group name doc names =
    { Ibr_harness.Campaign.name; doc; run = Group names } in
  c "native" "Bechamel native per-op cost of figure kernels, ablations"
    run_native
  :: c "fig7" "Fig. 7: scheme tradeoff table" (fun ~quick:_ ->
    report "Fig. 7: scheme tradeoffs" (E.fig7_table ()))
  :: List.map panel E.panel_ids
  @ [
    c "fig10" "Fig. 10: NM tree read-dominated (--quick: fewer threads)"
      (fun ~quick ->
         let r = E.fig10 ?threads_list:(threads_list ~quick) () in
         charts "Fig. 10" [ r.space_fig ] ~rows:("fig10", r.rows));
    c "k-sweep" "ablation: empty_freq (k) throughput and space"
      (fun ~quick:_ ->
         let thr, spc, rows = E.empty_freq_sweep () in
         charts "ablation: empty_freq (k) sweep" [ thr; spc ]
           ~rows:("k-sweep", rows));
    c "fence" "ablation: HP-vs-IBR gap against the fence cost"
      (fun ~quick:_ -> charts "ablation: fence cost" [ E.fence_cost_sweep () ]);
    c "tagibr" "ablation: TagIBR born_before strategies" (fun ~quick:_ ->
      charts "ablation: TagIBR strategies" [ E.tagibr_strategy_sweep () ]);
    c "profiles" "scheme x YCSB profile campaign (--quick: t=8)" run_profiles;
    c "retire" "ablation: retirement backends (--quick: t=8,16)" run_retire;
    c "robust" "fault-profile robustness campaign" run_robust;
    c "robust-domains" "robustness campaign on real domains (wall clock)"
      run_robust_domains;
    c "service" "open-loop service SLO over every scheme (--quick: shorter)"
      run_service;
    c "service-heal" "DEBRA+ eject vs neutralize under live stalls"
      run_service_heal;
    c "trace-overhead" "probe cost: virtual-time identity, native slowdown"
      run_trace_overhead;
    c "bench6" "background-reclaim ablation, BENCH_6.json (--quick: t=4)"
      run_bench6;
    group "figures" "every figure and figure ablation, in this order"
      figure_names;
    group "all" "native, every figure, then the sim campaigns"
      (("native" :: figure_names)
       @ [ "profiles"; "retire"; "robust"; "service" ]);
  ]
