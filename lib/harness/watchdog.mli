(** Ejection/neutralization watchdog (DEBRA+/NBR-style; DESIGN.md §7,
    §12).

    A monitor thread that detects workers making no progress and
    applies a {!remedy}: {!Eject} expires the victim's reservations
    through the tracker's [eject] hook so a crash-faulted thread stops
    pinning retired memory forever; {!Neutralize} instead delivers a
    restart signal that the victim acts on itself — it unwinds its
    current attempt, recovers its protection, and keeps working.  Two
    drivers share the scan: {!spawn} rides the simulated machine as a
    fiber; {!spawn_exec} runs on any {!Runner_intf.exec} — a real
    monitor domain with wall-clock periods on the domains backend.

    {b Soundness caveat (ejection only):} no-progress is a heuristic
    for death.  Ejecting a live thread readmits use-after-free;
    [grace * period] must exceed the longest legitimate dispatch gap,
    and profiles that arm an ejecting watchdog must not also inject
    stalls.  Neutralizing a live thread is sound — it merely restarts
    an attempt — so the neutralize profiles may keep stalls on.  See
    {!Ibr_core.Tracker_intf.TRACKER.eject}. *)

type t

type remedy =
  | Eject
      (** Expire the victim's reservations and write it off (it is
          re-armed if its counter ever moves again). *)
  | Neutralize of (int -> unit)
      (** [Neutralize deliver]: call [deliver tid] to send the victim
          a restart signal ({!Ibr_core.Fault.Neutralized} at its next
          delivery point); keep monitoring, count a recovery when its
          counter moves again, and re-deliver after another full
          grace window if it stays frozen. *)

val spawn :
  sched:Ibr_runtime.Sched.t ->
  period:int ->
  grace:int ->
  threads:int ->
  ?remedy:remedy ->
  ?active:(int -> bool) ->
  progress:(int -> int) ->
  footprint:(unit -> int) ->
  eject:(int -> unit) ->
  unit -> t
(** [spawn ~sched ~period ~grace ~threads ~progress ~footprint ~eject ()]
    registers the monitor thread on [sched] (must precede
    {!Ibr_runtime.Sched.run}).  Every [period] virtual cycles it polls
    [progress tid] (a monotone per-worker operation counter) for each
    of the [threads] workers; a worker that completed at least one
    operation and then stalls at the same count for [grace]
    consecutive checks receives the [remedy] (default {!Eject}).
    [footprint] (live+retired blocks) is sampled around each remedy to
    estimate the memory recovered.

    [active] (default: always true) reports whether a census slot
    currently has an occupant (dynamic churn, DESIGN.md §10): an
    inactive slot is not monitored and its arming/staleness/ejection
    state is reset, so a joiner that reuses the slot is watched from
    scratch instead of being ejected against the leaver's counter.
    @raise Invalid_argument if [period < 1] or [grace < 1]. *)

val spawn_exec :
  exec:Runner_intf.exec ->
  period:int ->
  grace:int ->
  threads:int ->
  ?remedy:remedy ->
  ?active:(int -> bool) ->
  progress:(int -> int) ->
  footprint:(unit -> int) ->
  eject:(int -> unit) ->
  unit -> t
(** {!spawn} over a backend {!Runner_intf.exec} (must precede its
    [launch]): the same scan every [period] backend time units —
    virtual cycles on the sim, microseconds of monotonic wall clock on
    domains, where progress counters are read racily (a stale read
    delays an ejection by one round, absorbed by the grace budget).
    @raise Runner_intf.Unsupported if the backend lacks the
    ["watchdog"] capability (or ["neutralize"], for a {!Neutralize}
    remedy). *)

val ejections : t -> int
(** Workers ejected so far. *)

val neutralizations : t -> int
(** Restart signals delivered so far. *)

val recovered : t -> int
(** Neutralized workers whose progress counter has moved again — the
    signals that demonstrably healed the thread instead of killing
    it. *)

val footprint_recovered : t -> int
(** Estimated blocks unpinned by remedies: the drop in allocator
    footprint between each ejection/neutralization and the following
    check, summed. *)

val ejected : t -> int -> bool
val neutralized : t -> int -> bool
(** A signal was delivered to this slot and its recovery is pending
    (the counter has not moved since). *)

val publish : t -> unit
(** Publish {!ejections}, {!neutralizations} and {!recovered} to the
    metric gauges of the same names (end of run).  The gauges are
    registered at module init, so every rows CSV carries the three
    columns whichever remedy ran. *)
