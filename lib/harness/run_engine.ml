(* The one run lifecycle both backends and both loops share
   (DESIGN.md §11).

   [Phases] owns every piece of scaffolding a run needs — prefill, the
   op dispatch, the background-reclaimer service thread, the watchdog,
   the handoff pre-drain, the metrics baseline, launch, shutdown
   quiescence, the gauge publishes — over a {!Runner_intf.exec}: the
   record of what a backend can do.  [run] is the closed loop on top of
   it (capacity sizing, the fixed worker census, stats assembly);
   [Service] is the open loop on top of the same phases.  The two
   constructors here build the exec record.

   [sim_exec] wraps a discrete-event {!Sched.t}.  Its closures are
   chosen so the engine replays the old [Runner_sim.run] {e exactly}:
   [worker_running]/[aux_running]/[worker_tick] are constant [true]
   (fibers end by horizon unwinding, not polling), [wait] is
   [Hooks.step], and spawn order (workers, then reclaimer, then
   watchdog) fixes the same fiber tids — so the machine executes the
   same step sequence, draws the same PRNG stream, and the golden CSV
   stays byte-identical.

   [domains_exec] runs the registered bodies on real [Domain.t]s with
   monotonic wall-clock time at the 1 cycle ~ 1 us convention.
   Workers poll [worker_running] (every operation via [worker_tick]'s
   64-op cadence); service threads poll [aux_running], which goes
   false once every worker has joined.  Stall faults are injected as
   real [sleepf] stalls from a per-thread PRNG; crash faults cannot be
   injected into a domain from outside, so the capability is absent
   and crash profiles fail fast with [Unsupported] instead of the old
   silent zeroed gauges. *)

open Ibr_runtime
open Ibr_ds

type config = {
  threads : int;
  seed : int;
  tracker_cfg : Ibr_core.Tracker_intf.config;
  spec : Workload.spec;
  faults : Runner_intf.faults;
}

(* -- backend constructors -- *)

let sim_caps : Runner_intf.capabilities = {
  deterministic = true;
  crash_faults = true;
  stall_faults = true;
  virtual_time = true;
  watchdog = true;
  neutralize = true;
  alloc_capacity = true;
  service = true;
}

let sim_exec ~sched ~horizon : Runner_intf.exec =
  {
    backend = "sim";
    caps = sim_caps;
    spawn = (fun body -> ignore (Sched.spawn sched (fun tid -> body ~tid)));
    spawn_aux = (fun body -> ignore (Sched.spawn sched (fun _ -> body ())));
    launch = (fun () -> Sched.run ~horizon sched);
    now = Hooks.now;
    wait = Hooks.step;
    worker_running = (fun () -> true);
    aux_running = (fun () -> true);
    worker_tick = (fun ~tid:_ -> true);
    (* Eject first, then signal: the fiber cannot dereference before
       its next resumption, where the scheduler delivers [Neutralized]
       ahead of any further step (see the soundness note in Sched). *)
    neutralize =
      (fun ~eject ~tid ->
        eject ();
        Sched.neutralize sched tid);
    makespan = (fun () -> min (Sched.makespan sched) horizon);
    publish_crashes = (fun () -> Sched.publish_crashes sched);
  }

let domains_caps : Runner_intf.capabilities = {
  deterministic = false;
  crash_faults = false;
  stall_faults = true;
  virtual_time = false;
  watchdog = true;
  neutralize = true;
  alloc_capacity = true;
  service = true;
}

(* Sleep [n] microseconds.  Short waits spin on the monotonic clock:
   at this scale a nanosleep round-trip costs more than it waits. *)
let wait_us n =
  if n > 0 then begin
    if n < 50 then begin
      let until = Monotonic.now_ns () + (n * 1000) in
      while Monotonic.now_ns () < until do Domain.cpu_relax () done
    end
    else Unix.sleepf (float_of_int n /. 1e6)
  end

let domains_exec ~threads ~duration_s ~seed ~faults () : Runner_intf.exec =
  let duration_us = int_of_float (duration_s *. 1e6) in
  let workers : (unit -> unit) list ref = ref [] in
  let auxes : (unit -> unit) list ref = ref [] in
  let next_tid = ref 0 in
  let aux_stop = Atomic.make false in
  let start_ns = ref 0 in
  let end_ns = ref 0 in
  let now () = (Monotonic.now_ns () - !start_ns) / 1000 in
  let worker_running () = now () < duration_us in
  (* Per-worker op counters and fault PRNGs for [worker_tick].  The
     counters are distinct-index plain writes (no sharing); the PRNG
     seed is decorrelated from the workload stream. *)
  let ticks = Array.make (max threads 1) 0 in
  let fault_rngs =
    Array.init (max threads 1) (fun i ->
      Rng.stream ~seed:(seed lxor 0x57a11) ~index:i)
  in
  let worker_tick ~tid =
    let c = ticks.(tid) + 1 in
    ticks.(tid) <- c;
    if c land 63 <> 0 then true
    else begin
      (* Clock check and fault draw every 64 ops, keeping the
         syscall off the per-operation hot path (the old runner's
         batch=64 deadline check). *)
      (match (faults : Runner_intf.faults) with
       | Stall_storm { stall_prob; stall_len }
       | Stall_neutralize { stall_prob; stall_len; _ } ->
         if Rng.chance fault_rngs.(tid) stall_prob then wait_us stall_len
       | _ -> ());
      worker_running ()
    end
  in
  (* Neutralization rails: one flag per worker slot, raised by the
     watchdog and drained by the victim itself at its next guard-path
     poll ([Hooks.poll_neutralize] inside [Prim.read]) while its
     restart window is open.  Delivery is signal-only on this backend:
     an external eject could race a dereference the victim is already
     committed to, so the victim expires its own reservations inside
     [recover] after the raise. *)
  let rails = Array.init (max threads 1) (fun _ -> Atomic.make false) in
  {
    backend = "domains";
    caps = domains_caps;
    spawn =
      (fun body ->
        let tid = !next_tid in
        incr next_tid;
        workers :=
          (fun () ->
            (* Per-domain handler: track the restart window locally
               (DLS — no other thread reads it) and poll the rail. *)
            let win = ref false in
            Hooks.set
              { Hooks.default with
                restart_window =
                  (fun open_ ->
                    let prev = !win in
                    win := open_;
                    prev);
                poll_neutralize =
                  (fun () ->
                    if !win && Atomic.get rails.(tid) then begin
                      Atomic.set rails.(tid) false;
                      raise Hooks.Neutralized
                    end) };
            body ~tid)
          :: !workers);
    spawn_aux = (fun body -> auxes := body :: !auxes);
    launch =
      (fun () ->
        start_ns := Monotonic.now_ns ();
        let ws = List.rev_map Domain.spawn (List.rev !workers) in
        let axs = List.rev_map Domain.spawn (List.rev !auxes) in
        List.iter Domain.join ws;
        Atomic.set aux_stop true;
        List.iter Domain.join axs;
        end_ns := Monotonic.now_ns ());
    now;
    wait = wait_us;
    worker_running;
    aux_running = (fun () -> not (Atomic.get aux_stop));
    worker_tick;
    neutralize = (fun ~eject:_ ~tid -> Atomic.set rails.(tid) true);
    makespan = (fun () -> (!end_ns - !start_ns) / 1000);
    (* Honest no-op: crash profiles raise [Unsupported] on this
       backend, so the gauge's absence cannot be mistaken for a
       zero-crash measurement. *)
    publish_crashes = (fun () -> ());
  }

(* -- the shared run lifecycle -- *)

(* Fail fast when the mix draws on a capability the rideable does not
   export, naming the rideables that could run it instead. *)
let check_caps ~ds_name (module S : Ds_intf.RIDEABLE) (mix : Workload.mix) =
  let need = Workload.required mix in
  let have = Ds_intf.caps_of (module S) in
  if not (Ds_intf.subsumes have need) then begin
    let missing =
      {
        Ds_intf.map = need.map && not have.map;
        queue = need.queue && not have.queue;
        range = need.range && not have.range;
        bulk = need.bulk && not have.bulk;
      }
    in
    let capable =
      match Ds_registry.supporting need with
      | [] -> "none"
      | ms -> String.concat ", " (List.map (fun m -> m.Ds_registry.ds_name) ms)
    in
    invalid_arg
      (Printf.sprintf
         "Run_engine: rideable %S lacks capability %s needed by mix %S \
          (capable rideables: %s)"
         ds_name
         (Ds_intf.caps_to_string missing)
         (Workload.mix_name mix) capable)
  end

(* A closed-loop worker under [Stall_watchdog], or a service worker
   with no demand left, idles here until the run ends. *)
let rec park (exec : Runner_intf.exec) =
  exec.wait 4096;
  if exec.worker_running () then park exec

type watch = { period : int; grace : int; neutralize : bool }

type measured = {
  makespan : int;
  alloc : Ibr_core.Alloc.stats;
  watchdog : Watchdog.t option;
  metrics : Ibr_obs.Metrics.snapshot;
}

module Phases (S : Ds_intf.RIDEABLE) = struct
  (* Prefill outside the measured run: through the map when there is
     one (byte-identical to the historical prefill), else by enqueueing
     the selected keys. *)
  let prefill h0 (spec : Workload.spec) ~seed =
    let insert =
      match S.map with
      | Some m -> fun ~key ~value -> m.Ds_intf.insert h0 ~key ~value
      | None ->
        (match S.queue with
         | Some q ->
           fun ~key ~value:_ ->
             q.Ds_intf.enqueue h0 key;
             true
         | None -> fun ~key:_ ~value:_ -> false)
    in
    Workload.prefill ~rng:(Rng.create (seed lxor 0x5eed)) ~spec ~insert

  (* One operation drawn from the mix; [false] when it aborted.  The
     caller's [check_caps] guarantees every op the mix can draw has its
     capability record. *)
  let op h rng (spec : Workload.spec) ~key =
    try
      (match Workload.pick_op rng spec.mix with
       | Workload.Insert ->
         ignore ((Option.get S.map).Ds_intf.insert h ~key ~value:key)
       | Workload.Remove -> ignore ((Option.get S.map).Ds_intf.remove h ~key)
       | Workload.Get -> ignore ((Option.get S.map).Ds_intf.get h ~key)
       | Workload.Scan ->
         ignore
           ((Option.get S.range).Ds_intf.range h ~lo:key
              ~hi:(Workload.scan_hi spec key))
       | Workload.Enqueue -> (Option.get S.queue).Ds_intf.enqueue h key
       | Workload.Dequeue -> ignore ((Option.get S.queue).Ds_intf.dequeue h)
       | Workload.Migrate -> ignore ((Option.get S.bulk).Ds_intf.migrate h));
      true
    with
    | Ibr_core.Alloc.Exhausted
    | Ibr_core.Fault.Memory_fault (Ibr_core.Fault.Alloc_exhausted, _) ->
      (* Heap full after the backpressure ladder: the op aborted (its
         reservations were released on unwind); later sweeps may free
         room. *)
      false

  let measure ~(exec : Runner_intf.exec) t ~threads ~watch ?active ~progress
      () =
    (* The background reclaimer (tracker cfg [background_reclaim])
       rides as one more service thread: it drains the handoff queues
       and runs the sweep cadence on its own time budget, off the
       mutators' critical path.  An idle poll still waits — on the sim
       the step is both the livelock guard and the polling period. *)
    let service = S.reclaim_service t in
    (match service with
     | Some svc ->
       exec.spawn_aux (fun () ->
         let idle_poll = 128 in
         let rec loop () =
           if exec.aux_running () then begin
             if svc.Ibr_core.Handoff.drain () = 0 then exec.wait idle_poll;
             loop ()
           end
         in
         loop ())
     | None -> ());
    (* The watchdog rides as one more service thread. *)
    let watchdog =
      Option.map
        (fun { period; grace; neutralize } ->
           let remedy =
             if neutralize then
               Watchdog.Neutralize
                 (fun tid ->
                    exec.neutralize ~eject:(fun () -> S.eject t ~tid) ~tid)
             else Watchdog.Eject
           in
           Watchdog.spawn_exec ~exec ~period ~grace ~threads ~remedy ?active
             ~progress
             ~footprint:(fun () -> (S.allocator_stats t).live)
             ~eject:(fun tid -> S.eject t ~tid)
             ())
        watch
    in
    (* Prefill replacements may have queued retirements; drain them now
       so the measured phase starts with empty queues and the shutdown
       invariant (drained = pushed within the run) is exact. *)
    (match service with
     | Some svc -> ignore (svc.Ibr_core.Handoff.drain ())
     | None -> ());
    (* Baseline the registry counters at the edge of the measured phase
       (gauges and histograms are zeroed here too). *)
    let baseline = Ibr_obs.Metrics.begin_run () in
    exec.launch ();
    (* Shutdown quiescence: every worker has unwound/crashed/joined, so
       one final flush moves still-queued blocks (including the batch
       buffers of departed producers) into the reclaimer and sweeps.  A
       crash that abandoned a fiber mid-drain leaves the handoff lock
       held; the run is exclusive again, so seizing it is sound. *)
    (match service with
     | Some svc -> svc.Ibr_core.Handoff.shutdown_flush ()
     | None -> ());
    (* Publish the instance-scoped gauges, then snapshot. *)
    let alloc = S.allocator_stats t in
    Ibr_core.Alloc.publish_stats alloc;
    Ibr_core.Epoch.publish (S.epoch_value t);
    exec.publish_crashes ();
    Option.iter Watchdog.publish watchdog;
    {
      makespan = exec.makespan ();
      alloc;
      watchdog;
      metrics = Ibr_obs.Metrics.collect baseline;
    }
end

(* The watchdog a fault profile arms. *)
let watch_of_faults : Runner_intf.faults -> watch option = function
  | Crash_watchdog { period; grace; _ } | Stall_watchdog { period; grace } ->
    Some { period; grace; neutralize = false }
  | Stall_neutralize { period; grace; _ } ->
    Some { period; grace; neutralize = true }
  | _ -> None

(* -- the closed loop -- *)

let run ~(exec : Runner_intf.exec) ~tracker_name ~ds_name
    (module S : Ds_intf.RIDEABLE) (cfg : config) =
  Runner_intf.require exec cfg.faults;
  check_caps ~ds_name (module S) cfg.spec.mix;
  let module P = Phases (S) in
  let t = S.create ~threads:cfg.threads cfg.tracker_cfg in
  P.prefill (S.register t ~tid:0) cfg.spec ~seed:cfg.seed;
  (* The capacity can only be sized now: the working set exists. *)
  (match cfg.faults with
   | Crash_capped { slack_per_thread; _ } ->
     let st = S.allocator_stats t in
     S.set_capacity t (Some (st.live + (cfg.threads * slack_per_thread)))
   | _ -> ());
  let ops = Array.make cfg.threads 0 in
  let aborted = Array.make cfg.threads 0 in
  let samplers = Array.init cfg.threads (fun _ -> Stats.make_sampler ()) in
  for _ = 0 to cfg.threads - 1 do
    exec.spawn (fun ~tid ->
      let h = S.register t ~tid in
      let rng = Rng.stream ~seed:cfg.seed ~index:tid in
      (* Runs until the scheduler unwinds it at the horizon (sim) or
         [worker_tick] reports the wall deadline (domains). *)
      let rec loop () =
        Stats.sample samplers.(tid) (S.retired_count h);
        let key = Workload.pick_key rng cfg.spec in
        if P.op h rng cfg.spec ~key then ops.(tid) <- ops.(tid) + 1
        else aborted.(tid) <- aborted.(tid) + 1;
        match cfg.faults with
        | Stall_watchdog _ when tid = 0 ->
          (* The victim parks between operations — holding no
             reservation, so ejecting it is sound by construction (the
             profile tests detection, not rescue). *)
          park exec
        | _ -> if exec.worker_tick ~tid then loop ()
      in
      loop ())
  done;
  (* Watchdog progress = attempts, not completions, so a live thread
     stuck aborting against a full heap is not mistaken for a dead
     one. *)
  let m =
    P.measure ~exec t ~threads:cfg.threads ~watch:(watch_of_faults cfg.faults)
      ~progress:(fun tid -> ops.(tid) + aborted.(tid))
      ()
  in
  let total_ops = Array.fold_left ( + ) 0 ops in
  let merged = Stats.merge_samplers (Array.to_list samplers) in
  {
    Stats.tracker = tracker_name;
    ds = ds_name;
    threads = cfg.threads;
    mix = Workload.mix_name cfg.spec.mix;
    backend = exec.backend;
    ops = total_ops;
    makespan = m.makespan;
    throughput = Stats.throughput ~ops:total_ops ~makespan:m.makespan;
    avg_unreclaimed = Stats.mean merged;
    peak_unreclaimed = merged.peak;
    samples = merged.n;
    metrics = m.metrics;
  }

(* Resolve names through the tracker and data-structure registries:
   the rideable instantiated over the tracker, under the tracker's
   canonical name, or [None] when the pairing is incompatible. *)
let resolve ~tracker_name ~ds_name =
  let tracker = (Ibr_core.Registry.find_exn tracker_name).tracker in
  let maker = Ds_registry.find_exn ds_name in
  let (module S : Ds_intf.RIDEABLE) = maker.instantiate tracker in
  let (module T : Ibr_core.Tracker_intf.TRACKER) = tracker in
  if S.compatible T.props then Some (T.name, (module S : Ds_intf.RIDEABLE))
  else None

let run_named ~exec ~tracker_name ~ds_name cfg =
  Option.map
    (fun (tracker_name, m) -> run ~exec ~tracker_name ~ds_name m cfg)
    (resolve ~tracker_name ~ds_name)
