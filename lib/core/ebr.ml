(* Epoch-based reclamation (paper §2.2, Fig. 2).

   One epoch reservation per thread, posted at [start_op], cleared
   (to MAX) at [end_op].  A retired block is reclaimable once its
   retire epoch precedes every posted reservation.  Fast — no per-read
   instrumentation at all — but not robust: one stalled thread pins
   every block retired after its start epoch. *)

module Scheme = struct
  let name = "EBR"

  let props = {
    Tracker_intf.robust = false;
    needs_unreserve = false;
    mutable_pointers = true;
    bounded_slots = false;
    pointer_tag_words = 0;
    fence_per_read = false;
    summary =
      "start epoch reserves everything not retired before it; \
       unbounded reservation for a stalled thread";
  }

  type 'a t = {
    epoch : Epoch.t;
    reservations : int Atomic.t array;
    base : 'a Tracker_base.t;
  }

  type 'a handle = {
    t : 'a t;
    tid : int;
    alloc_counter : int ref;
    path : 'a Handoff.path;
  }

  type 'a ptr = 'a Plain_ptr.t

  let create ~threads cfg =
    let epoch = Epoch.create () in
    let reservations = Array.init threads (fun _ -> Atomic.make max_int) in
    let base =
      Tracker_base.create ~threads cfg
        ~current_epoch:(fun () -> Epoch.peek epoch)
        ~source:(fun () () -> Tracker_base.oldest_reservation reservations)
        ~clear:(fun tid -> Prim.write reservations.(tid) max_int)
        ()
    in
    { epoch; reservations; base }

  let handle t tid path = { t; tid; alloc_counter = ref 0; path }
  let register t ~tid = Tracker_base.register t.base ~tid (handle t)
  let attach t = Tracker_base.attach t.base (handle t)

  let handle_tid h = h.tid

  let alloc h payload =
    (* Fig. 2 ties epoch advancement to retirement; we tie it to
       allocation as §3 does for all schemes (one convention across the
       board makes the robustness bound uniform). *)
    Epoch.tick h.t.epoch ~counter:h.alloc_counter
      ~freq:h.t.base.cfg.epoch_freq;
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
    Prim.write h.t.reservations.(h.tid) max_int;
    Ibr_obs.Probe.unreserve ~slot:0

  include Plain_ptr.Unguarded

  let retired_count h = Tracker_base.retired_count h.path
  let force_empty h = Tracker_base.force_empty h.t.base ~tid:h.tid h.path
  let allocator t = Tracker_base.allocator t.base
  let epoch_value t = Epoch.peek t.epoch
  let reclaim_service t = Tracker_base.reclaim_service t.base

  (* Neutralize a dead (or suspended) thread: clearing its epoch
     reservation unpins everything it held. *)
  let eject t ~tid = Tracker_base.eject t.base ~tid

  (* Neutralization recovery: self-expire (drop + scratch flush), then
     re-protect exactly as a fresh [start_op] would. *)
  let recover h =
    eject h.t ~tid:h.tid;
    start_op h

  let detach h = Tracker_base.detach h.t.base ~tid:h.tid h.path
end

include Scheme

(* An intentionally *unsound* mutation: [detach] skips the final
   guarded sweep and frees every block the leaver still holds retired,
   without testing them against other threads' reservations — the
   classic broken lifecycle shortcut ("my thread is leaving, so its
   garbage must be droppable") that per-thread registration papers
   (DEBRA, Stamp-it) warn about.  A reader mid-interval that still
   guards one of those blocks dereferences freed memory.  Exists only
   so the [thread_churn] scenario has a bug to find; its shrunk
   witness is pinned under test/traces/. *)
module Noflush = struct
  include Scheme

  let name = "EBR-noflush"

  let props = {
    props with
    Tracker_intf.summary =
      "UNSOUND detach: frees pending retirements without a final \
       guarded sweep; kept as a demonstration oracle for thread churn";
  }

  (* THE BUG: the leaver frees its pending retirements unconditionally
     ([Reclaimer.drain_all]) where a sound detach runs its final
     guarded sweep. *)
  let detach h =
    Handoff.path_drain h.path ~tid:h.tid;
    Reclaimer.drain_all (Handoff.path_reclaimer h.path) (fun b ->
      Alloc.free h.t.base.alloc ~tid:h.tid b);
    eject h.t ~tid:h.tid;
    Tracker_base.release h.t.base ~tid:h.tid
end
