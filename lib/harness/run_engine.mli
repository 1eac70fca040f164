(** The shared run lifecycle behind both runners and the service
    (DESIGN.md §11).

    {!Phases} holds the pieces every run shares — prefill, op
    dispatch, background reclaimer, watchdog, launch, shutdown
    quiescence, gauge publishing.  {!run} drives one closed-loop
    benchmark configuration on them (capacity sizing, worker fleet,
    stats assembly) over a {!Runner_intf.exec} built by one of the two
    constructors here; {!Service} drives the open loop on the same
    phases.
    Fault profiles whose required capabilities the backend lacks fail
    fast with {!Runner_intf.Unsupported}.

    Time units follow the 1 virtual cycle ~ 1 microsecond convention,
    so period-like knobs (watchdog period, stall length, service
    horizons) mean the same thing on either backend. *)

type config = {
  threads : int;
  seed : int;
  tracker_cfg : Ibr_core.Tracker_intf.config;
  spec : Workload.spec;
  faults : Runner_intf.faults;
}

val sim_caps : Runner_intf.capabilities
val domains_caps : Runner_intf.capabilities

val sim_exec : sched:Ibr_runtime.Sched.t -> horizon:int -> Runner_intf.exec
(** Wrap a discrete-event machine.  The engine's calls through this
    exec replay the original simulator runner exactly (same step and
    PRNG sequences), keeping traced runs and the golden CSV
    byte-identical. *)

val domains_exec :
  threads:int -> duration_s:float -> seed:int ->
  faults:Runner_intf.faults -> unit -> Runner_intf.exec
(** Real [Domain.t]s under monotonic wall-clock time (microsecond
    units).  [threads] sizes the per-worker tick state; [faults]
    selects the wall-clock fault injection [worker_tick] performs
    (stall storms as real sleeps).  Workers observe the [duration_s]
    deadline through [worker_tick]/[worker_running]; service threads
    run until every worker has joined. *)

val check_caps :
  ds_name:string -> (module Ibr_ds.Ds_intf.RIDEABLE) -> Workload.mix -> unit
(** Fail fast ([Invalid_argument]) when the mix draws on a capability
    the rideable does not export; the message names the missing
    capability and the rideables that could run the mix. *)

(** {1 Run phases}

    The pieces every run loop over a backend shares, so the closed loop
    ({!run}) and the open-loop service ({!Service}) differ only in how
    their workers draw work. *)

val park : Runner_intf.exec -> unit
(** Idle the calling worker until the run ends. *)

type watch = { period : int; grace : int; neutralize : bool }
(** A watchdog to arm: check every [period], act after [grace] stale
    checks, by restart signal when [neutralize] else by ejection. *)

(** What the measured phase leaves behind. *)
type measured = {
  makespan : int;
  alloc : Ibr_core.Alloc.stats;  (** at shutdown, as published *)
  watchdog : Watchdog.t option;
  metrics : Ibr_obs.Metrics.snapshot;
}

module Phases (S : Ibr_ds.Ds_intf.RIDEABLE) : sig
  val prefill : S.handle -> Workload.spec -> seed:int -> unit
  (** Populate the structure through [h0] from the seeded prefill
      stream: map inserts, or enqueues for a queue-only rideable. *)

  val op : S.handle -> Ibr_runtime.Rng.t -> Workload.spec -> key:int -> bool
  (** One operation drawn from [spec.mix] on [key]; [false] when it
      aborted on allocator exhaustion.  Allocates nothing beyond what
      the operation itself does.  The mix must have passed
      {!check_caps} for [S]. *)

  val measure :
    exec:Runner_intf.exec -> S.t -> threads:int -> watch:watch option ->
    ?active:(int -> bool) -> progress:(int -> int) -> unit -> measured
  (** Call after spawning the workers.  Spawns the background
      reclaimer (when the tracker has one) and the watchdog over
      [threads] slots (when [watch] asks), pre-drains the handoff
      queues, baselines the metric registry, launches the run, flushes
      the reclaimer at shutdown, publishes the instance gauges and
      snapshots the registry. *)
end

(** {1 The closed loop} *)

val run :
  exec:Runner_intf.exec ->
  tracker_name:string -> ds_name:string ->
  (module Ibr_ds.Ds_intf.RIDEABLE) -> config -> Stats.t
(** Run one configuration to completion and assemble its stats row
    ([backend] stamped from the exec).
    @raise Runner_intf.Unsupported if [config.faults] needs a
    capability the backend does not declare.
    @raise Invalid_argument if the mix draws on a capability the
    rideable does not export (the message lists capable rideables). *)

val resolve :
  tracker_name:string -> ds_name:string ->
  (string * (module Ibr_ds.Ds_intf.RIDEABLE)) option
(** The rideable instantiated over the tracker, with the tracker's
    canonical name; [None] if the pairing is incompatible.
    @raise Not_found on unknown names. *)

val run_named :
  exec:Runner_intf.exec ->
  tracker_name:string -> ds_name:string -> config -> Stats.t option
(** {!run} after {!resolve}. *)
