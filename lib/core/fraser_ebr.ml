(* Fraser's original epoch-based reclamation [12] (paper §2.2).

   Where our [Ebr] advances the global epoch on an allocation cadence
   (the §3 convention), Fraser's scheme advances it only when *every*
   active thread has been observed in the current epoch: a thread
   posts the epoch at operation start, and a would-be advancer CASes
   e -> e+1 once all posted reservations equal e.  Blocks retired in
   epoch x become reclaimable at epoch x+2 — by then every thread has
   begun a fresh operation since the retirement.

   Properties are EBR's: zero per-read cost, not robust (one thread
   parked mid-operation freezes the epoch and with it all
   reclamation). *)

let name = "EBR-Fraser"

let props = {
  Tracker_intf.robust = false;
  needs_unreserve = false;
  mutable_pointers = true;
  bounded_slots = false;
  pointer_tag_words = 0;
  fence_per_read = false;
  summary =
    "Fraser's EBR: epoch advances only when all active threads have \
     observed it; two-epoch lag, frozen by any stalled thread";
}

(* Reservation values: the observed epoch, or [inactive] — [max_int],
   which reads as having observed every epoch. *)
let inactive = max_int

type 'a t = {
  epoch : Epoch.t;
  reservations : int Atomic.t array;
  base : 'a Tracker_base.t;
}

type 'a handle = {
  t : 'a t;
  tid : int;
  path : 'a Handoff.path;
}

type 'a ptr = 'a Plain_ptr.t

(* Advance e -> e+1 iff every active thread has posted e (or later —
   possible when it raced past us). *)
let try_advance epoch reservations =
  let e = Epoch.read epoch in
  if Epoch.all_reached reservations e then
    ignore (Epoch.advance_cas epoch ~expected:e)

(* retire_epoch > e - 2, i.e. the two-epoch-lag threshold.  The
   advance attempt is the reclaimer's [prepare] hook so it still runs
   when the Gated backend skips the sweep itself — otherwise a closed
   gate would freeze the epoch it is waiting on.  A forced sweep's
   caller is between operations: [settle] helps the epoch forward two
   steps so blocks retired before its last operation become
   reclaimable.  A parked slot reads [inactive], so a free slot never
   blocks the all-observed advance. *)
let create ~threads cfg =
  let epoch = Epoch.create () in
  let reservations = Array.init threads (fun _ -> Atomic.make inactive) in
  let base =
    Tracker_base.create ~threads cfg
      ~prepare:(fun () -> try_advance epoch reservations)
      ~current_epoch:(fun () -> Epoch.peek epoch)
      ~source:(fun () () ->
        let e = Epoch.read epoch in
        Reclaimer.Shape (Tracker_common.Conflict.Threshold (e - 1)))
      ~clear:(fun tid -> Prim.write reservations.(tid) inactive)
      ~settle:(fun _ ->
        try_advance epoch reservations;
        try_advance epoch reservations)
      ()
  in
  { epoch; reservations; base }

let handle t tid path = { t; tid; path }
let register t ~tid = Tracker_base.register t.base ~tid (handle t)

(* Dynamic registration.  A free slot reads [inactive], which is also
   the correct state for a joiner between operations — it only posts
   an epoch at [start_op] — so attach needs no reservation write. *)
let attach t = Tracker_base.attach t.base (handle t)

let handle_tid h = h.tid

let alloc h payload =
  let b = Alloc.alloc h.t.base.alloc ~tid:h.tid payload in
  Block.set_birth_epoch b (Epoch.peek h.t.epoch);
  b

let dealloc h b = Alloc.free_unpublished h.t.base.alloc ~tid:h.tid b

let retire h b =
  Block.transition_retire b;
  Block.set_retire_epoch b (Epoch.read h.t.epoch);
  Handoff.path_add h.path ~tid:h.tid b

let start_op h =
  let e = Epoch.read h.t.epoch in
  Prim.write h.t.reservations.(h.tid) e;
  Ibr_obs.Probe.reserve ~slot:0

let end_op h =
  Prim.write h.t.reservations.(h.tid) inactive;
  Ibr_obs.Probe.unreserve ~slot:0

include Plain_ptr.Unguarded

let retired_count h = Tracker_base.retired_count h.path
let force_empty h = Tracker_base.force_empty h.t.base ~tid:h.tid h.path
let allocator t = Tracker_base.allocator t.base
let epoch_value t = Epoch.peek t.epoch
let reclaim_service t = Tracker_base.reclaim_service t.base

(* Neutralize a dead thread: marking it inactive both unpins its
   reservation and lets the all-observed advance proceed again. *)
let eject t ~tid = Tracker_base.eject t.base ~tid

(* Neutralization recovery: self-expire, then re-announce as a fresh
   [start_op]. *)
let recover h =
  eject h.t ~tid:h.tid;
  start_op h

let detach h = Tracker_base.detach h.t.base ~tid:h.tid h.path
