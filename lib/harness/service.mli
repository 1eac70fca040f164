(** Open-loop service simulation with dynamic thread churn
    (DESIGN.md §10).

    Models a long-running service rather than a closed-loop
    microbenchmark: requests arrive on a precomputed Poisson or bursty
    schedule (diurnal ramp + load spikes), keys are Zipf-skewed, and a
    fleet of worker fibers join and leave the tracker census through
    {!Ibr_ds.Ds_intf.RIDEABLE.attach}/[detach] while serving.  Per-request
    latency is measured arrival-to-completion (queueing included) and
    the run ends with SLO pass/fail verdicts over p50/p99/p999 latency
    and peak allocator footprint.

    Same seed and profile ⇒ bit-identical {!to_csv_row} and verdicts
    (certified by [test_service]). *)

type arrival =
  | Poisson
  | Bursty of { burst : int; prob : float }
      (** Poisson base process; each base arrival additionally
          triggers a train of [burst] same-instant arrivals with
          probability [prob]. *)

val arrival_name : arrival -> string
val arrival_of_string : string -> arrival option
(** ["poisson"] or ["bursty"] (the default burst shape). *)

(** Latency targets in virtual cycles, footprint in blocks; [max_int]
    disables a check. *)
type slo = {
  p50 : int;
  p99 : int;
  p999 : int;
  peak_footprint : int;
}

val default_slo : slo

type verdict = {
  metric : string;
  target : int;
  actual : int;
  ok : bool;
}

type profile = {
  workers : int;       (** census capacity (tracker slot count) *)
  fleet : int;         (** worker fibers sharing the slots *)
  cores : int;
  horizon : int;
  seed : int;
  arrival : arrival;
  period : int;        (** base mean inter-arrival gap, cycles *)
  diurnal : bool;      (** ×0.6 rate at the edges, ×1.5 mid-run *)
  spikes : int;        (** evenly spaced ×3 windows, 2% of horizon *)
  zipf_theta : float;  (** 0 = uniform *)
  session_ops : int;   (** requests served per attached session *)
  away : int;          (** cycles detached between sessions *)
  watchdog : (int * int) option;  (** [(period, grace)] *)
  neutralize : bool;
  (** Watchdog remedy: [false] ejects a stalled worker (it is lost for
      the rest of its session), [true] delivers a restart signal and
      lets it recover in place (DESIGN.md §12). *)
  spec : Workload.spec;
  tracker_cfg : Ibr_core.Tracker_intf.config;
  slo : slo;
}

val default_profile :
  ?workers:int -> ?fleet:int -> ?cores:int -> ?horizon:int -> ?seed:int ->
  ?arrival:arrival -> ?period:int -> ?diurnal:bool -> ?spikes:int ->
  ?zipf_theta:float -> ?session_ops:int -> ?away:int ->
  ?watchdog:int * int -> ?neutralize:bool -> ?slo:slo ->
  spec:Workload.spec -> unit -> profile

val rate_permille : profile -> t:int -> int
(** Arrival-rate modulation at virtual time [t], in permille of the
    base rate — all-integer (diurnal tent and spike windows), exposed
    for tests. *)

val gen_arrivals : profile -> int array * bool
(** The precomputed arrival schedule (non-decreasing timestamps) and
    whether the safety cap truncated it.  Deterministic in
    [profile.seed] and the shape parameters. *)

type result = {
  tracker : string;
  ds : string;
  backend : string;     (** provenance: ["sim"] or ["domains"] *)
  workers : int;
  fleet : int;
  arrivals : int;
  arrivals_capped : bool;
  completed : int;
  aborted : int;        (** claimed, then died of allocator exhaustion *)
  unserved : int;       (** never claimed, or unwound mid-request *)
  attaches : int;
  detaches : int;
  attach_full : int;    (** attach attempts refused (census full) *)
  ejections : int;
  neutralizations : int;  (** restart signals delivered *)
  recovered : int;        (** neutralized workers that resumed progress *)
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
  max_latency : int;
  peak_footprint : int;
  makespan : int;
  throughput : float;   (** completed requests per Mcycle *)
  verdicts : verdict list;
  slo_pass : bool;
}

val run_named :
  tracker_name:string -> ds_name:string -> profile -> result option
(** One full service run on a fresh instance of the simulator, sized
    by [profile.cores] and seeded by [profile.seed].  Prefills through
    a temporary attach/detach, spawns [fleet] workers, then runs
    {!Run_engine.Phases.measure} — the same reclaimer, watchdog,
    launch and gauge phase as the closed loop — to [horizon], and
    digests latencies and verdicts.  [None] if the tracker cannot run
    this rideable (see {!Ibr_ds.Ds_intf.RIDEABLE.compatible}).
    @raise Not_found on unknown names.
    @raise Invalid_argument on non-positive [workers], [fleet],
    [period], or [session_ops]. *)

val run_named_exec :
  exec:Runner_intf.exec -> tracker_name:string -> ds_name:string ->
  profile -> result option
(** {!run_named} over an explicit backend.  On a
    {!Run_engine.domains_exec} the same precomputed arrival schedule
    plays out against the monotonic wall clock (microsecond units —
    [horizon], [period], [away] and the SLO targets carry over under
    the 1 cycle ~ 1 us convention) with real attach/detach churn
    across domains.
    @raise Runner_intf.Unsupported if the backend lacks the
    ["service"] capability. *)

val csv_header : string
val to_csv_row : result -> string
(** Fixed-format row (integers plus one fixed-format float):
    bit-reproducible for a fixed seed. *)

val verdicts_csv : result -> string
(** Compact [metric:actual<=target:pass/FAIL] list, [;]-separated. *)

val pp : Format.formatter -> result -> unit
