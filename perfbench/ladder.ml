(* The traced run: the workload's own traced pass, then the layer
   ladder — single-threaded timing loops over the public functions of
   each layer, identical in every traced run — then the attribution
   line and the span file.

   A traced run reports the metrics its layers produce; run.py lays
   them out in BENCHMARK.json's order and marks the ones a workload
   never exercises as n/a. *)

open Util
open Ibr_core
module Probe = Ibr_obs.Probe
module Rng = Ibr_runtime.Rng

(* -- timing loops -- *)

(* Median ns per iteration of [loop n] over [reps] timed runs, after
   one untimed warm-up run. *)
let bench ~reps ~n name loop =
  loop n;
  let xs =
    List.init reps (fun _ ->
      let (), ns = timed (fun () -> loop n) in
      float_of_int ns /. float_of_int n)
  in
  Printf.printf "  %-38s %s\n%!" name (pp_summary "ns" (summarize xs));
  median xs

let prim_loops ~reps ~n =
  let a = Atomic.make 0 in
  List.map
    (fun (name, loop) -> m name "ns" (bench ~reps ~n name loop))
    [
      ("prim.read_ns", fun n ->
        for _ = 1 to n do ignore (Sys.opaque_identity (Prim.read a)) done);
      ("prim.hot_read_ns", fun n ->
        for _ = 1 to n do ignore (Sys.opaque_identity (Prim.hot_read a)) done);
      ("prim.write_ns", fun n -> for i = 1 to n do Prim.write a i done);
      ("prim.cas_ns", fun n ->
        Atomic.set a 0;
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (Prim.cas a i (i + 1)))
        done);
      ("prim.fence_ns", fun n -> for _ = 1 to n do Prim.fence () done);
      ("prim.faa_ns", fun n ->
        for _ = 1 to n do ignore (Sys.opaque_identity (Prim.faa a 1)) done);
      ("prim.atomic_get_ns", fun n ->
        for _ = 1 to n do ignore (Sys.opaque_identity (Atomic.get a)) done);
      ("prim.atomic_set_ns", fun n -> for i = 1 to n do Atomic.set a i done);
      ("prim.atomic_cas_ns", fun n ->
        Atomic.set a 0;
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (Atomic.compare_and_set a i (i + 1)))
        done);
      ("prim.atomic_faa_ns", fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Atomic.fetch_and_add a 1))
        done);
    ]

(* Prim charges per call of [f], by kind. *)
let charges_per_call ~n f =
  Probe.enable_hist ();
  let before = Probe.charges () in
  for _ = 1 to n do f () done;
  let d = probe_delta before (Probe.charges ()) in
  Probe.stop ();
  List.map (fun (k, c) -> (k, fratio c n)) d

(* start_op+end_op, a protected read inside one operation, and
   alloc+retire outside any operation (the retire cadence sweeps every
   [empty_freq] = 30 retirements, amortized in). *)
let tracker_loops ~reps ~n (entry : Registry.entry) =
  let module T = (val entry.tracker : Tracker_intf.TRACKER) in
  let t : int T.t = T.create ~threads:1 (Tracker_intf.default_config ()) in
  let h = T.register t ~tid:0 in
  let p = T.make_ptr t (Some (T.alloc h 1)) in
  let name s = Printf.sprintf "tracker.%s.%s" entry.name s in
  let bracket =
    bench ~reps ~n (name "bracket_ns") (fun n ->
      for _ = 1 to n do T.start_op h; T.end_op h done)
  in
  let read =
    bench ~reps ~n (name "read_ns") (fun n ->
      T.start_op h;
      for _ = 1 to n do ignore (Sys.opaque_identity (T.read h ~slot:0 p)) done;
      T.end_op h)
  in
  let retire =
    bench ~reps ~n (name "retire_ns") (fun n ->
      for i = 1 to n do T.retire h (T.alloc h i) done)
  in
  let bracket_charges =
    charges_per_call ~n:10_000 (fun () -> T.start_op h; T.end_op h)
  in
  ( [ m (name "bracket_ns") "ns" bracket; m (name "read_ns") "ns" read;
      m (name "retire_ns") "ns" retire ],
    bracket_charges )

(* One timed forced sweep over [blocks] retired blocks against a fixed
   synthetic reservation set of three intervals; the survivors are
   drained untimed so every sweep starts from the same store shape. *)
let reclaimer_loop ~reps ~blocks backend =
  let alloc = Alloc.create ~threads:1 () in
  let snap =
    Tracker_common.Sweep_snapshot.of_intervals ~lower:[| 200; 500; 800 |]
      ~upper:[| 260; 530; 900 |]
  in
  let free b = Alloc.free alloc ~tid:0 b in
  let r =
    Reclaimer.create ~backend ~empty_freq:0
      ~current_epoch:(fun () -> 1000)
      ~source:(fun () -> Reclaimer.Shape (Tracker_common.Conflict.Intervals snap))
      ~free ()
  in
  let rng = Rng.create 42 in
  let sweep () =
    for i = 0 to blocks - 1 do
      let b = Alloc.alloc alloc ~tid:0 i in
      let retire = i * 1000 / blocks in
      Block.set_birth_epoch b (max 0 (retire - Rng.int rng 50));
      Block.set_retire_epoch b retire;
      Block.transition_retire b;
      Reclaimer.add r b
    done;
    let (), ns = timed (fun () -> Reclaimer.force r) in
    Reclaimer.drain_all r free;
    float_of_int ns /. float_of_int blocks
  in
  ignore (sweep ());
  let xs = List.init reps (fun _ -> sweep ()) in
  let name =
    Printf.sprintf "reclaimer.%s.sweep_ns_per_block"
      (String.lowercase_ascii (Reclaimer.backend_name backend))
  in
  Printf.printf "  %-38s %s\n%!" name (pp_summary "ns" (summarize xs));
  m name "ns" (median xs)

let alloc_loop ~reps ~n =
  let a = Alloc.create ~threads:1 () in
  m "alloc.alloc_free_ns" "ns"
    (bench ~reps ~n "alloc.alloc_free_ns" (fun n ->
       for i = 1 to n do Alloc.free_unpublished a ~tid:0 (Alloc.alloc a ~tid:0 i) done))

let workload_loop ~reps ~n =
  let rng = Rng.create 7 in
  let spec = Native.spec Native.map_read in
  m "workload.draw_ns" "ns"
    (bench ~reps ~n "workload.draw_ns" (fun n ->
       for _ = 1 to n do
         ignore (Sys.opaque_identity (Ibr_harness.Workload.pick_key rng spec));
         ignore (Sys.opaque_identity (Ibr_harness.Workload.pick_op rng spec.mix))
       done))

(* One [Hooks.step] of a read's cost inside a [Sched] fiber (one
   thread on one simulated core, default scheduler knobs). *)
let sched_loop ~reps ~n =
  let cost = !Prim.costs.Ibr_runtime.Cost.read in
  let run n =
    let s = Ibr_runtime.Sched.create { Ibr_runtime.Sched.default_config with cores = 1 } in
    ignore
      (Ibr_runtime.Sched.spawn s (fun _ ->
         for _ = 1 to n do Ibr_runtime.Hooks.step cost done));
    Ibr_runtime.Sched.run s
  in
  m "sched.step_ns" "ns" (bench ~reps ~n "sched.step_ns" run)

(* The map-read configuration through [Runner_domains.run] next to the
   benchmark's own direct driver, at 2 workers and at 1.  ns per op is
   per worker: workers x wall time / completed ops.  Runner and direct
   runs alternate, and each figure is the median of [trials]. *)
let engine (o : Native.opts) =
  let module S =
    (val Native.rideable ~buckets:Native.map_read.buckets "2GEIBR")
  in
  let module B = Native.Make (S) in
  let dur = if o.quick then 0.1 else 0.5 in
  let trials = if o.quick then 1 else 3 in
  let via_runner workers =
    let cfg =
      Ibr_harness.Runner_domains.default_config ~threads:workers ~duration_s:dur
        ~seed:o.seed ~spec:(Native.spec Native.map_read) ()
    in
    let st =
      Spans.with_span "Runner_domains.run" (fun _ ->
        Ibr_harness.Runner_domains.run ~tracker_name:"2GEIBR" ~ds_name:"hashmap"
          (module S) cfg)
    in
    float_of_int workers *. float_of_int st.makespan *. 1e3
    /. float_of_int (max 1 st.ops)
  in
  let row suffix workers =
    let c = { Native.map_read with workers } in
    let inst = B.setup c ~seed:o.seed ~stream_len:Native.stream_len ~lat_cap:16 in
    let direct () =
      let r =
        Spans.with_span "direct-driver" (fun _ ->
          B.round inst ~dur_ns:(int_of_float (dur *. 1e9)) ~sample_mask:max_int
            ~spans:None)
      in
      float_of_int workers *. float_of_int r.r_elapsed_ns
      /. float_of_int (max 1 r.r_ops)
    in
    let pairs =
      List.init trials (fun _ ->
        let e = via_runner workers in
        (e, direct ()))
    in
    let e = median (List.map fst pairs) and d = median (List.map snd pairs) in
    Printf.printf "  engine (%d worker%s): Runner_domains %.1f ns/op, direct %.1f ns/op, \
                   tax %.1f ns/op, ratio %.3f (medians of %d)\n%!"
      workers (if workers = 1 then "" else "s") e d (e -. d) (ratio e d) trials;
    [
      m ("engine.ns_per_op" ^ suffix) "ns" e;
      m ("engine.direct_ns_per_op" ^ suffix) "ns" d;
      m ("engine.tax_ns_per_op" ^ suffix) "ns" (e -. d);
      m ("engine.ratio" ^ suffix) "x" (ratio e d);
    ]
  in
  let two = row "" 2 in
  two @ row "_1w" 1

(* The whole ladder.  Returns its metrics, the 2GEIBR bracket's Prim
   charges (for the attribution line) and its checks. *)
let ladder (o : Native.opts) =
  let reps = if o.quick then 3 else 7 in
  let n = if o.quick then 100_000 else 1_000_000 in
  Fault.set_mode Fault.Count;
  let faults0 = Fault.total () in
  Printf.printf "layer ladder (median ns per call, IQR over %d runs):\n%!" reps;
  let prim = prim_loops ~reps ~n in
  let trackers =
    List.map (tracker_loops ~reps ~n:(n / 4))
      [ Registry.two_ge_ibr; Registry.ebr; Registry.hp ]
  in
  let reclaimers =
    List.map (reclaimer_loop ~reps ~blocks:(if o.quick then 4096 else 65536))
      Reclaimer.all_backends
  in
  let alloc = alloc_loop ~reps ~n in
  let draw = workload_loop ~reps ~n in
  let step = sched_loop ~reps ~n in
  let eng = Spans.with_span "engine" (fun _ -> engine o) in
  let cs = new_checks () in
  let faults = Fault.total () - faults0 in
  check cs ~count:faults "ladder-faults" (faults = 0)
    (Printf.sprintf "%d memory faults in the layer loops" faults);
  (* After the fault count: the checker's Faulty cases fault on purpose
     and it judges them itself. *)
  let chk = Spans.with_span "check-suite" (fun _ -> Checker.suite cs ~quick:o.quick) in
  ( prim @ List.concat_map fst trackers @ reclaimers @ [ alloc; draw; step ] @ eng
    @ chk,
    snd (List.hd trackers),
    cs )

(* -- attribution -- *)

let value metrics name =
  match List.find_opt (fun x -> x.name = name) metrics with
  | Some x -> x.value
  | None -> 0.0

(* What one Prim call of each kind costs natively, and what the raw
   operation it wraps costs.  Charge-only kinds wrap nothing, so they
   cost what a fence (also charge-only natively) costs. *)
let prim_cost metrics (k : Probe.cost_kind) =
  let v = value metrics in
  match k with
  | K_read -> (v "prim.read_ns", v "prim.atomic_get_ns")
  | K_hot_read -> (v "prim.hot_read_ns", v "prim.atomic_get_ns")
  | K_write -> (v "prim.write_ns", v "prim.atomic_set_ns")
  | K_cas | K_cas_fail -> (v "prim.cas_ns", v "prim.atomic_cas_ns")
  | K_faa -> (v "prim.faa_ns", v "prim.atomic_faa_ns")
  | K_fence | K_alloc_fresh | K_alloc_reuse | K_free | K_scan_reservation
  | K_local -> (v "prim.fence_ns", 0.0)

(* Split one operation's time (per worker, untraced rounds) into the
   Prim tax (calls/op x (Prim - raw atomic)), the tracker's own work in
   its start/end bracket (bracket loop minus the Prim calls inside it),
   allocator and sweep work (allocs/op x alloc+free, examined blocks/op
   x list sweep per block) and the rest (raw atomics, traversal,
   hashing, cache misses, contention).  An estimate from single-thread
   loops, not a measurement of the parallel run. *)
let attribution name metrics ~(attr : Native.attribution_input) ~bracket =
  let tax =
    List.fold_left
      (fun acc (k, c) ->
        let p, a = prim_cost metrics k in
        acc +. (fratio c attr.counts.n *. (p -. a)))
      0.0 attr.counts.charges
  in
  let bracket_prim =
    List.fold_left
      (fun acc (k, c) -> acc +. (c *. fst (prim_cost metrics k)))
      0.0 bracket
  in
  let tracker = value metrics "tracker.2GEIBR.bracket_ns" -. bracket_prim in
  let reclaim =
    (attr.counts.allocs_per_op *. value metrics "alloc.alloc_free_ns")
    +. (attr.counts.examined_per_op
        *. value metrics "reclaimer.list.sweep_ns_per_block")
  in
  let op = attr.op_ns in
  let rest = op -. tax -. tracker -. reclaim in
  let pct x = 100.0 *. ratio x op in
  Printf.printf
    "attribution %s: op %.0f ns/op/worker = Prim tax %.0f (%.1f%%) + tracker \
     %.0f (%.1f%%) + Reclaimer/Alloc %.0f (%.1f%%) + rest %.0f (%.1f%%)\n%!"
    name op tax (pct tax) tracker (pct tracker) reclaim (pct reclaim) rest
    (pct rest)

(* -- traced entry points -- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let finish ~workload ~(o : Native.opts) ~out (r : result) ladder_metrics cs =
  mkdir_p out;
  let path = Filename.concat out (Printf.sprintf "%s-seed%d.spans.tsv" workload o.seed) in
  Spans.write ~path ~op_cap:200_000;
  {
    correct = r.correct && cs.failed_checks = 0;
    attempted = r.attempted;
    failed = r.failed + cs.failed;
    metrics = r.metrics @ ladder_metrics;
  }

(* The GC's heap high-water mark is read right after the workload's
   own traced part, before the ladder allocates. *)
let with_heap (r : result) =
  { r with metrics = r.metrics @ [ m "gc.heap_peak_mb" "MB" (heap_peak_mb ()) ] }

let traced_native (c : Native.config) o ~out =
  let r, attr = Native.run_traced c o in
  let r = with_heap r in
  let lad, bracket, cs = ladder o in
  attribution c.name lad ~attr ~bracket;
  finish ~workload:c.name ~o ~out r lad cs

let traced_sim o ~out =
  let r = with_heap (Simw.run_traced o) in
  let lad, _, cs = ladder o in
  finish ~workload:"sim-oversub" ~o ~out r lad cs
