(* The two native workloads, map-read and map-update: a closed loop of
   worker domains over the Michael hashmap, driven directly through
   the rideable's [map_ops].  Each worker's operation stream (key and
   kind) is drawn from the seed during set-up, so drawing counts
   toward set-up time, not operation time; a worker sends its next
   operation only when the previous one returned. *)

open Util
module W = Ibr_harness.Workload
module Rng = Ibr_runtime.Rng
module Probe = Ibr_obs.Probe

type config = {
  name : string;
  buckets : int;
  key_range : int;
  mix : W.mix;
  workers : int;
}

(* map-read: 6144 prefilled keys in 512 buckets, so chains of ~12
   nodes make every get a long traversal, while the structure (about
   1.1 MB) stays in each core's 2 MiB L2.  A larger map spills to the
   shared L3, where its speed follows the load of other tenants. *)
let map_read =
  { name = "map-read"; buckets = 512; key_range = 8192; mix = W.profile_b;
    workers = 2 }

let map_update =
  { name = "map-update"; buckets = 4096; key_range = 4096; mix = W.profile_a;
    workers = 2 }

let spec c = { W.key_range = c.key_range; prefill_fraction = 0.75; mix = c.mix }

(* Operation codes packed under the key: [key lsl 2 lor kind]. *)
let k_get = 0
let k_insert = 1
let k_remove = 2

(* Same draw order as the engine's worker loop: key, then kind. *)
let gen_stream ~seed ~worker spec len =
  let rng = Rng.stream ~seed ~index:worker in
  Array.init len (fun _ ->
    let key = W.pick_key rng spec in
    let kind =
      match W.pick_op rng spec.W.mix with
      | W.Insert -> k_insert
      | W.Remove -> k_remove
      | _ -> k_get
    in
    (key lsl 2) lor kind)

(* What one worker did in one round. *)
type tally = {
  ops : int;        (* operations attempted *)
  aborted : int;    (* operations that raised *)
  ins_ok : int;
  rem_ok : int;
  ret_sum : int;    (* retired_count summed at operation start *)
  lat_n : int;      (* latency samples written to the worker buffer *)
}

type round = {
  r_ops : int;      (* operations completed *)
  r_elapsed_ns : int;
  r_p50 : float;
  r_p99 : float;
  r_samples : int;
}

let round_ops_s r = fratio r.r_ops r.r_elapsed_ns *. 1e9

(* Prim charges and layer activity of a single-worker pass over
   [n] operations; exact for a given seed. *)
type counts = {
  charges : (Probe.cost_kind * int) list;
  n : int;
  allocs_per_op : float;
  examined_per_op : float;
}

module Make (S : Ibr_ds.Ds_intf.RIDEABLE) = struct
  type inst = {
    t : S.t;
    hs : S.handle array;
    m : (S.t, S.handle) Ibr_ds.Ds_intf.map_ops;
    prefilled : int;
    streams : int array array;
    pos : int array;
    lat : int array array;
    mutable ins_ok : int;
    mutable rem_ok : int;
    mutable attempted : int;
    mutable aborted : int;
    mutable ret_sum : int;
  }

  let tracker_cfg c = Ibr_core.Tracker_intf.default_config ~threads:c.workers ()

  (* Create, prefill 3/4 of the key range from worker 0's handle, and
     draw every worker's operation stream. *)
  let setup c ~seed ~stream_len ~lat_cap =
    let m =
      match S.map with
      | Some m -> m
      | None -> invalid_arg ("rideable without map_ops: " ^ S.name)
    in
    let t = S.create ~threads:c.workers (tracker_cfg c) in
    let hs = Array.init c.workers (fun tid -> S.register t ~tid) in
    let prefilled = ref 0 in
    W.prefill ~rng:(Rng.create (seed lxor 0x5eed)) ~spec:(spec c)
      ~insert:(fun ~key ~value ->
        let ok = m.Ibr_ds.Ds_intf.insert hs.(0) ~key ~value in
        if ok then incr prefilled;
        ok);
    let streams =
      Array.init c.workers (fun w -> gen_stream ~seed ~worker:w (spec c) stream_len)
    in
    {
      t; hs; m; prefilled = !prefilled; streams;
      pos = Array.make c.workers 0;
      lat = Array.init c.workers (fun _ -> Array.make lat_cap 0);
      ins_ok = 0; rem_ok = 0; attempted = 0; aborted = 0; ret_sum = 0;
    }

  (* One worker's closed loop until [deadline].  Every [sample_mask+1]-th
     operation is timed into the worker's latency buffer; with [spans]
     every operation is also recorded as a span. *)
  let work inst w ~deadline ~sample_mask ~spans =
    let m = inst.m and h = inst.hs.(w) and stream = inst.streams.(w) in
    let len = Array.length stream in
    let lat = inst.lat.(w) in
    let cap = Array.length lat in
    let pos = ref inst.pos.(w) in
    let ops = ref 0 and aborted = ref 0 and ins_ok = ref 0 and rem_ok = ref 0 in
    let ret_sum = ref 0 and lat_n = ref 0 in
    let traced = Option.is_some spans in
    let running = ref true in
    while !running do
      if !ops land 63 = 0 && now_ns () >= deadline then running := false
      else begin
        let code = stream.(!pos) in
        pos := if !pos + 1 = len then 0 else !pos + 1;
        ret_sum := !ret_sum + S.retired_count h;
        let sample = !ops land sample_mask = 0 in
        let timed = sample || traced in
        let t0 = if timed then now_ns () else 0 in
        let key = code lsr 2 and kind = code land 3 in
        (try
           if kind = k_get then ignore (m.get h ~key)
           else if kind = k_insert then begin
             if m.insert h ~key ~value:key then incr ins_ok
           end
           else if m.remove h ~key then incr rem_ok
         with _ -> incr aborted);
        if timed then begin
          let d = now_ns () - t0 in
          (match spans with
           | Some b -> Spans.add_op b ~kind ~start:t0 ~dur:d
           | None -> ());
          if sample && !lat_n < cap then begin
            lat.(!lat_n) <- d;
            incr lat_n
          end
        end;
        incr ops
      end
    done;
    inst.pos.(w) <- !pos;
    { ops = !ops; aborted = !aborted; ins_ok = !ins_ok; rem_ok = !rem_ok;
      ret_sum = !ret_sum; lat_n = !lat_n }


  (* One closed-loop round of [dur_ns] on every worker.  Latency
     percentiles are over this round's samples. *)
  let round inst ~dur_ns ~sample_mask ~spans =
    let workers = Array.length inst.hs in
    let t0 = now_ns () in
    let deadline = t0 + dur_ns in
    let spans_of w = Option.map (fun f -> f w) spans in
    (* Worker 0 runs on the calling domain: a domain blocked in
       [Domain.join] would still take part in every stop-the-world
       minor collection through its backup thread, and its wake-ups
       would be timed as operation cost. *)
    let others =
      Array.init (workers - 1) (fun i ->
        let w = i + 1 in
        Domain.spawn (fun () ->
          work inst w ~deadline ~sample_mask ~spans:(spans_of w)))
    in
    let t_main = work inst 0 ~deadline ~sample_mask ~spans:(spans_of 0) in
    let ts = Array.append [| t_main |] (Array.map Domain.join others) in
    let elapsed = now_ns () - t0 in
    let samples = Array.fold_left (fun n t -> n + t.lat_n) 0 ts in
    let all = Array.make (max samples 1) 0 in
    let off = ref 0 in
    Array.iteri
      (fun w t ->
        Array.blit inst.lat.(w) 0 all !off t.lat_n;
        off := !off + t.lat_n)
      ts;
    let p50, p99 =
      match int_quantiles all samples [ 0.5; 0.99 ] with
      | [ a; b ] -> (a, b)
      | _ -> (0.0, 0.0)
    in
    let sum f = Array.fold_left (fun n t -> n + f t) 0 ts in
    let ops = sum (fun t -> t.ops) and aborted = sum (fun t -> t.aborted) in
    inst.ins_ok <- inst.ins_ok + sum (fun t -> t.ins_ok);
    inst.rem_ok <- inst.rem_ok + sum (fun t -> t.rem_ok);
    inst.attempted <- inst.attempted + ops;
    inst.aborted <- inst.aborted + aborted;
    inst.ret_sum <- inst.ret_sum + sum (fun t -> t.ret_sum);
    { r_ops = ops - aborted; r_elapsed_ns = elapsed;
      r_p50 = p50; r_p99 = p99; r_samples = samples }

  (* The output checks.  Operations that raised or faulted count one
     failure each, any other failed check one. *)
  let run_checks inst ~key_range ~faults_before =
    let cs = new_checks () in
    check cs ~count:inst.aborted "aborts" (inst.aborted = 0)
      (Printf.sprintf "%d operations raised" inst.aborted);
    (match S.check_invariants inst.t with
     | () -> check cs "invariants" true "check_invariants passed"
     | exception e ->
       check cs "invariants" false (Printexc.to_string e));
    let final =
      match inst.m.to_sorted_list inst.t with
      | l -> List.length l
      | exception _ -> -1
    in
    let expected = inst.prefilled + inst.ins_ok - inst.rem_ok in
    check cs "size" (final = expected)
      (Printf.sprintf "final %d = prefill %d + inserted %d - removed %d"
         final inst.prefilled inst.ins_ok inst.rem_ok);
    (* A remove whose unlink CAS lost leaves its node marked but still
       linked (so not in [to_sorted_list]) until a later traversal
       unlinks and retires it.  One get per key from a single thread
       passes every such node, so afterwards each allocated block is
       reachable, retired or freed. *)
    for key = 0 to key_range - 1 do
      ignore (inst.m.get inst.hs.(0) ~key)
    done;
    let faults = Ibr_core.Fault.total () - faults_before in
    check cs ~count:faults "faults" (faults = 0)
      (Printf.sprintf "%d memory faults" faults);
    let st = S.allocator_stats inst.t in
    let retired =
      Array.fold_left (fun n h -> n + S.retired_count h) 0 inst.hs
    in
    check cs "alloc-conservation"
      (st.allocated - st.freed = final + retired)
      (Printf.sprintf "allocated %d - freed %d = reachable %d + retired %d"
         st.allocated st.freed final retired);
    cs

  let avg_unreclaimed inst = fratio inst.ret_sum inst.attempted

  let peak_footprint inst = (S.allocator_stats inst.t).peak_footprint

  (* Single-worker pass over the first [n] operations of worker 0's
     stream on a fresh instance, with Prim charges counted: the counts
     repeat exactly for a given seed. *)
  let count_pass inst ~n =
    let sweep0 = Ibr_core.Tracker_common.Sweep_stats.snap () in
    let alloc0 = (S.allocator_stats inst.t).allocated in
    Probe.enable_hist ();
    let before = Probe.charges () in
    let m = inst.m and h = inst.hs.(0) and stream = inst.streams.(0) in
    for i = 0 to n - 1 do
      let code = stream.(i) in
      let key = code lsr 2 and kind = code land 3 in
      if kind = k_get then ignore (m.get h ~key)
      else if kind = k_insert then ignore (m.insert h ~key ~value:key)
      else ignore (m.remove h ~key)
    done;
    let delta = probe_delta before (Probe.charges ()) in
    Probe.stop ();
    let sweep = Ibr_core.Tracker_common.Sweep_stats.(diff sweep0 (snap ())) in
    {
      charges = delta;
      n;
      allocs_per_op = fratio ((S.allocator_stats inst.t).allocated - alloc0) n;
      examined_per_op = fratio sweep.examined n;
    }
end

(* -- the two workloads -- *)

type opts = {
  seed : int;
  seconds : float;
  quick : bool;
  tracker : string;  (* 2GEIBR; UnsafeFree for the negative test *)
}

let rideable ?(buckets = 4096) tracker =
  let (module T) = (Ibr_core.Registry.find_exn tracker).tracker in
  let module H = Ibr_ds.Michael_hashmap.Make (T) in
  (module struct
    include H

    let create ~threads cfg = H.create_sized ~buckets ~threads cfg
  end : Ibr_ds.Ds_intf.RIDEABLE)

(* Stream length per worker (streams are replayed cyclically), latency
   buffer per worker per round, warm-up and round lengths. *)
let stream_len = 1 lsl 16
let lat_cap o = if o.quick then 1 lsl 14 else 1 lsl 16
let warmup_ns o = if o.quick then 100_000_000 else 300_000_000
let sample_mask = 15  (* time 1 operation in 16 *)
let round_s = 0.2

(* Instances a run spreads its rounds over, each with its own inputs
   drawn from [instance_seed]: on a 2-vCPU Xeon virtual machine, the
   median speeds of 8 map-update instances run in turn in one process
   spread by up to 18%, the same way twice, so a run of one instance
   would carry its input's luck into every figure. *)
let instances o = if o.quick then 1 else 8
let instance_seed o k = (o.seed * 8) + k

let s_of_ns ns = float_of_int ns /. 1e9

(* The untraced run: every end-to-end metric. *)
let run_e2e c o =
  let module S = (val rideable ~buckets:c.buckets o.tracker) in
  let module B = Make (S) in
  Ibr_core.Fault.set_mode Ibr_core.Fault.Count;
  let faults_before = Ibr_core.Fault.total () in
  let kernel = Reference.map_kernel ~workers:c.workers in
  let scale_around f =
    let before = Reference.run_map kernel in
    let x = f () in
    let after = Reference.run_map kernel in
    (x, Reference.scale ~nominal:Reference.map_nominal_ns ~before ~after)
  in
  (* Every set-up starts from a collected heap. *)
  let setup_times = ref [] in
  let timed_setup k =
    Gc.full_major ();
    let (i, ns), s =
      scale_around (fun () ->
        timed (fun () ->
          B.setup c ~seed:(instance_seed o k) ~stream_len
            ~lat_cap:(lat_cap o)))
    in
    setup_times := (s_of_ns ns, s) :: !setup_times;
    i
  in
  let insts = Array.init (instances o) timed_setup in
  let n_inst = Array.length insts in
  Printf.printf "setup: %d instances, %d x %d ops drawn per worker each\n%!"
    n_inst c.workers stream_len;
  Array.iter
    (fun inst ->
      ignore
        (B.round inst ~dur_ns:(warmup_ns o / n_inst) ~sample_mask ~spans:None))
    insts;
  (* Rounds on the instances in turn, each with the reference kernel's
     scale around it, until [o.seconds] is used. *)
  let dur_ns = int_of_float (round_s *. 1e9) in
  let t0 = now_ns () in
  let rec loop i acc =
    if i >= 3 && seconds_since t0 >= o.seconds then List.rev acc
    else
      loop (i + 1)
        (scale_around (fun () ->
           B.round insts.(i mod n_inst) ~dur_ns ~sample_mask ~spans:None)
        :: acc)
  in
  let rounds = loop 0 [] in
  List.iteri
    (fun i (r, s) ->
      Printf.printf
        "round %d: %.0f ops/s  p50 %.0f ns  p99 %.0f ns  (%d samples); \
         host scale %.3f\n"
        i (round_ops_s r) r.r_p50 r.r_p99 r.r_samples s)
    rounds;
  Printf.printf "setup: %s\n"
    (pp_summary "s" (summarize (List.map fst !setup_times)));
  let scaled f = median (List.map (fun (r, s) -> f r s) rounds) in
  let rounds = List.map fst rounds in
  (* Faults are counted machine-wide: the first instance's checks count
     every fault of the rounds, the others' only those of their own
     final pass. *)
  let cs = new_checks () in
  Array.iteri
    (fun k inst ->
      let faults_before =
        if k = 0 then faults_before else Ibr_core.Fault.total ()
      in
      let ck = B.run_checks inst ~key_range:c.key_range ~faults_before in
      cs.failed_checks <- cs.failed_checks + ck.failed_checks;
      cs.failed <- cs.failed + ck.failed)
    insts;
  let attempted = Array.fold_left (fun n i -> n + i.B.attempted) 0 insts in
  let samples = List.fold_left (fun n r -> n + r.r_samples) 0 rounds in
  Printf.printf
    "%s: attempted %d, failed %d (failed_frac %.3g); latency samples %d; \
     avg_unreclaimed %.2f blocks; peak_footprint %d blocks (instance 0)\n%!"
    c.name attempted cs.failed
    (fratio cs.failed attempted)
    samples (B.avg_unreclaimed insts.(0)) (B.peak_footprint insts.(0));
  {
    correct = cs.failed_checks = 0;
    attempted;
    failed = cs.failed;
    metrics =
      [
        m "ops_s" "1/s" (scaled (fun r s -> round_ops_s r *. s));
        m "op_p50_ns" "ns" (scaled (fun r s -> r.r_p50 /. s));
        m "op_p99_ns" "ns" (scaled (fun r s -> r.r_p99 /. s));
        m "setup_s" "s" (median (List.map (fun (t, s) -> t /. s) !setup_times));
      ];
  }

(* What the traced run hands to the attribution line. *)
type attribution_input = { counts : counts; op_ns : float }

(* The traced run: spans around every rideable call, the layer
   counters, and the untraced-vs-traced overhead. *)
let run_traced c o =
  let module S = (val rideable ~buckets:c.buckets o.tracker) in
  let module B = Make (S) in
  Ibr_core.Fault.set_mode Ibr_core.Fault.Count;
  let faults_before = Ibr_core.Fault.total () in
  let n_count = if o.quick then 20_000 else 200_000 in
  let counts =
    let fresh =
      B.setup c ~seed:o.seed ~stream_len:(max n_count stream_len)
        ~lat_cap:16
    in
    B.count_pass fresh ~n:n_count
  in
  let inst =
    Spans.with_span "setup" (fun _ ->
      B.setup c ~seed:o.seed ~stream_len ~lat_cap:(lat_cap o))
  in
  ignore (B.round inst ~dur_ns:(warmup_ns o) ~sample_mask ~spans:None);
  let phase_ns = int_of_float (Float.min 1.0 (o.seconds /. 4.0) *. 1e9) in
  let half = phase_ns / 2 in
  let untraced =
    Spans.with_span "untraced-rounds" (fun _ ->
      List.init 2 (fun _ -> B.round inst ~dur_ns:half ~sample_mask ~spans:None))
  in
  let avg_unrec = B.avg_unreclaimed inst in
  let st0 = S.allocator_stats inst.B.t in
  let baseline = Ibr_obs.Metrics.begin_run () in
  let cap = if o.quick then 1 lsl 16 else 1 lsl 20 in
  let traced =
    Spans.with_span "traced-rounds" (fun parent ->
      let bufs =
        Array.init c.workers (fun w -> Spans.ops_buffer ~worker:w ~capacity:cap ~parent)
      in
      List.init 2 (fun _ ->
        B.round inst ~dur_ns:half ~sample_mask
          ~spans:(Some (fun w -> bufs.(w)))))
  in
  let snap = Ibr_obs.Metrics.collect baseline in
  let st1 = S.allocator_stats inst.B.t in
  (* CAS outcomes under two-worker contention, from the Prim charge
     counters in a round of their own: the counters are shared and
     unsynchronized, so they would slow the span-traced rounds and
     may drop a few increments here (both outcomes alike). *)
  Probe.enable_hist ();
  let ch0 = Probe.charges () in
  ignore (B.round inst ~dur_ns:half ~sample_mask ~spans:None);
  let delta = probe_delta ch0 (Probe.charges ()) in
  Probe.stop ();
  let cs = B.run_checks inst ~key_range:c.key_range ~faults_before in
  let traced_ops = List.fold_left (fun n r -> n + r.r_ops) 0 traced in
  let ops_s_u = median (List.map round_ops_s untraced) in
  let ops_s_t = median (List.map round_ops_s traced) in
  let get k = Ibr_obs.Metrics.get snap k in
  let layer =
    counter_metrics ~charges:counts.charges ~charged:counts.n ~cas:delta
      ~ops:traced_ops ~sweeps:(get "sweeps") ~examined:(get "sweep_examined")
      ~freed:(get "sweep_freed") ()
    @ alloc_metrics ~mag_hits:(st1.mag_hits - st0.mag_hits)
        ~mag_misses:(st1.mag_misses - st0.mag_misses)
        ~depot_refills:(st1.depot_refills - st0.depot_refills) ~ops:traced_ops
    @ Spans.ds_metrics ()
    @ [
        m "space.avg_unreclaimed" "blocks" avg_unrec;
        m "space.peak_footprint" "blocks" (float_of_int st1.peak_footprint);
        m "trace.overhead_frac" "frac" (1.0 -. ratio ops_s_t ops_s_u);
      ]
  in
  Printf.printf "%s traced: untraced %.0f ops/s, traced %.0f ops/s\n%!" c.name
    ops_s_u ops_s_t;
  let attr =
    { counts; op_ns = float_of_int c.workers *. 1e9 /. ops_s_u }
  in
  ( { correct = cs.failed_checks = 0; attempted = inst.B.attempted;
      failed = cs.failed; metrics = layer },
    attr )
