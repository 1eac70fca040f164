(** The lifecycle chassis of every sweeping tracker (DESIGN.md §4c).

    A scheme supplies its reservation table, its conflict [source]
    and [clear] (its half of [eject]); this module owns the rest of
    the lifecycle: allocator and census set-up, the background
    handoff, the per-slot {!Reclaimer}, [register]/[attach]/[detach],
    [force_empty], [retired_count], [allocator], [reclaim_service]
    and the handoff-scratch flush in [eject].  The scheme's hot-path
    operations stay its own direct code.

    A scheme's record lists its reservation fields before its
    [Tracker_base.t] field.  The minor GC promotes a record's fields
    roughly in order, so this order decides where the shared epoch and
    reservation cells land in the major heap, and with it which of
    them share a cache line.  With the chassis field first, the
    2-domain [map-read] benchmark ran ~4% slower at the median. *)

type 'a t = private {
  alloc : 'a Alloc.t;
  cfg : Tracker_intf.config;
  census : 'a Handoff.path Tracker_common.Census.t;
  handoff : 'a Handoff.t option;
  make_reclaimer : int -> 'a Reclaimer.t;
  clear : int -> unit;
  settle : int -> unit;
}

val create :
  threads:int ->
  Tracker_intf.config ->
  ?prepare:(unit -> unit) ->
  current_epoch:(unit -> int) ->
  source:(unit -> unit -> 'a Reclaimer.test) ->
  clear:(int -> unit) ->
  ?settle:(int -> unit) ->
  unit ->
  'a t
(** Validate [cfg], then build the allocator (one extra thread slot
    for the background reclaimer when [background_reclaim] is set),
    the census and the handoff.

    - [source ()] runs once per reclaimer built and returns that
      reclaimer's conflict source, so a scheme can keep per-reclaimer
      scratch (HP's hazard set); one sweep calls the source once,
      paying the reservation snapshot.
    - [prepare] and [current_epoch] go to {!Reclaimer.create}.
    - [clear tid] drops slot [tid]'s reservations (the scheme's half
      of {!eject}).
    - [settle tid] runs in {!force_empty} between the handoff drain
      and the forced sweep: QSBR and Fraser-EBR help their epoch
      forward there.  Default: nothing. *)

val register : 'a t -> tid:int -> (int -> 'a Handoff.path -> 'h) -> 'h
(** Fixed-census registration: a fresh reclaimer path for [tid] (or
    the shared handoff queue), wired as [tid]'s allocator pressure
    hook, handed to the scheme's handle constructor. *)

val attach : 'a t -> (int -> 'a Handoff.path -> 'h) -> 'h option
(** Claim the lowest free census slot and its adopted path, and build
    the scheme's handle from them; [None] when every slot is
    taken. *)

val retired_count : 'a Handoff.path -> int

val force_empty : 'a t -> tid:int -> 'a Handoff.path -> unit
(** Drain the caller's queued retirements, [settle], then sweep
    bypassing the gate. *)

val allocator : 'a t -> 'a Alloc.t
val reclaim_service : 'a t -> Handoff.service option

val eject : 'a t -> tid:int -> unit
(** Flush [tid]'s handoff scratch, then [clear] its reservations. *)

val release : 'a t -> tid:int -> unit
(** Flush [tid]'s allocator magazines and free its census slot.  The
    caller must have published a quiescent reservation first. *)

val detach : 'a t -> tid:int -> 'a Handoff.path -> unit
(** {!force_empty}, {!eject}, then {!release} — the order that makes
    slot reuse safe. *)

val oldest_reservation : int Atomic.t array -> 'a Reclaimer.test
(** The epoch-family conflict source: snapshot the table and keep
    every block retired at or after the oldest reservation. *)
