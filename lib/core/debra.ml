(* DEBRA (Brown, "Reclaiming memory for lock-free data structures:
   there has to be a better way", PODC 2015): epoch-based reclamation
   with per-thread limbo bags and *amortized* epoch announcements.

   Two differences from the plain EBR of §2.2:

   - Announcement amortization: a thread re-reads the global epoch
     only every [announce_freq] operations, re-publishing a cached
     value in between.  A cached announcement is at most stale —
     i.e. smaller — which only makes the reservation *more*
     conservative (it pins a superset), so soundness is unaffected
     while the hot path drops the shared epoch load.  Per-operation
     publication and clearing are kept: the reservation slot still
     goes quiescent ([max_int]) at every [end_op], exactly like EBR.

   - Limbo bags: retired blocks go into epoch-bucketed limbo lists
     (the [Buckets] reclaimer backend) rather than a flat list — a
     bag whose epoch precedes every announcement frees as a unit.
     A caller-chosen [Gated] backend is respected; only the default
     flat [List] is remapped.

   DEBRA alone is not robust — a stalled thread still pins everything
   retired after its announcement.  The neutralization that makes it
   robust (DEBRA+) lives in [Debra_plus]; the recovery policy is the
   functor parameter below. *)

module type POLICY = sig
  val name : string
  val summary : string

  val invalidate_cache_on_recover : bool
  (* DEBRA+ promptness: a neutralized thread forgets its cached epoch
     so the restarted operation announces a fresh one, unpinning
     everything the stale announcement held. *)

  val reprotect_on_recover : bool
  (* The soundness half of recovery: re-run [start_op] before the
     operation retries.  [false] is the deliberately unsound
     debra-norestart oracle — the retry runs with a quiescent
     reservation and the model checker exhibits its use-after-free. *)
end

module Make (P : POLICY) : Tracker_intf.TRACKER = struct
  let name = P.name

  let props = {
    Tracker_intf.robust = false;
    needs_unreserve = false;
    mutable_pointers = true;
    bounded_slots = false;
    pointer_tag_words = 0;
    fence_per_read = false;
    summary = P.summary;
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
    announce_left : int ref; (* fresh epoch read when this hits 0 *)
    cached : int ref;        (* last announced epoch; -1 = none yet *)
    path : 'a Handoff.path;
  }

  type 'a ptr = 'a Plain_ptr.t

  (* Same single-threshold conflict as EBR: reclaim every block
     retired before the oldest announcement. *)
  let create ~threads (cfg : Tracker_intf.config) =
    (* Limbo bags are the scheme: remap the default flat list to the
       epoch-bucketed backend (an explicit [Gated] choice stands). *)
    let cfg =
      match cfg.retire_backend with
      | Reclaimer.List -> { cfg with retire_backend = Reclaimer.Buckets }
      | Reclaimer.Buckets | Reclaimer.Gated -> cfg
    in
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

  let handle t tid path =
    { t; tid; alloc_counter = ref 0; announce_left = ref 0;
      cached = ref (-1); path }

  let register t ~tid = Tracker_base.register t.base ~tid (handle t)
  let attach t = Tracker_base.attach t.base (handle t)

  let handle_tid h = h.tid

  let alloc h payload =
    Epoch.tick h.t.epoch ~counter:h.alloc_counter
      ~freq:h.t.base.cfg.epoch_freq;
    let b = Alloc.alloc h.t.base.alloc ~tid:h.tid payload in
    Block.set_birth_epoch b (Epoch.peek h.t.epoch);
    b

  let dealloc h b = Alloc.free_unpublished h.t.base.alloc ~tid:h.tid b

  let retire h b =
    Block.transition_retire b;
    (* The retire tag must not be stale (a smaller epoch would let the
       bag free early), so this read is never amortized. *)
    Block.set_retire_epoch b (Epoch.read h.t.epoch);
    Handoff.path_add h.path ~tid:h.tid b

  (* The amortized announcement: a fresh shared-epoch read only every
     [announce_freq] operations; in between, re-publish the cached
     value for the cost of a local decrement.  Staleness is bounded by
     one announcement period and errs conservative. *)
  let announce_epoch h =
    if !(h.cached) < 0 || !(h.announce_left) <= 0 then begin
      h.announce_left := h.t.base.cfg.announce_freq;
      h.cached := Epoch.read h.t.epoch
    end
    else Prim.local 1;
    h.announce_left := !(h.announce_left) - 1;
    !(h.cached)

  let start_op h =
    Prim.write h.t.reservations.(h.tid) (announce_epoch h);
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

  (* Neutralize a dead (or suspended) thread: clear its
     announcement. *)
  let eject t ~tid = Tracker_base.eject t.base ~tid

  (* Neutralization recovery, parameterized by policy: self-expire,
     then (DEBRA+) forget the cached epoch for a prompt fresh
     announcement, then (every sound variant) re-protect as a fresh
     [start_op].  See [POLICY]. *)
  let recover h =
    eject h.t ~tid:h.tid;
    if P.invalidate_cache_on_recover then begin
      h.cached := -1;
      h.announce_left := 0
    end;
    if P.reprotect_on_recover then start_op h

  let detach h = Tracker_base.detach h.t.base ~tid:h.tid h.path
end

include Make (struct
    let name = "DEBRA"
    let summary =
      "EBR with amortized announcements (fresh epoch read every k ops) \
       and epoch-bucketed limbo bags; fast, not robust alone"
    let invalidate_cache_on_recover = false
    let reprotect_on_recover = true
  end)
