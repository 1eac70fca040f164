(* Quiescent-state-based reclamation (Hart et al. [15]; paper §2.2).

   The RCU-style member of the epoch family: instead of posting a
   reservation at operation start, each thread announces *quiescent
   states* — moments when it holds no references (here: operation
   end).  The classic three-epoch construction:

   - a thread copies the global epoch E into its slot at each
     quiescent point;
   - a thread that observes every online slot equal to E advances E;
   - a block retired in epoch e is reclaimable once E >= e + 2: every
     thread has passed a quiescent state since the retirement.

   Like EBR it has zero per-read overhead; like EBR it is not robust —
   one thread that stops announcing quiescent states freezes the
   epoch and pins all future retirements.

   The epoch advance MUST be a conditional e -> e+1 CAS: two racing
   advancers that both increment unconditionally skip a grace period
   and free blocks whose readers have not quiesced (DESIGN.md §5a.3).
   The functor below keeps both advance policies so the buggy variant
   survives as a checked, model-checkable oracle ([Noncas]) alongside
   the sound scheme. *)

module type ADVANCE = sig
  val name : string
  val summary : string

  val advance : Epoch.t -> expected:int -> unit
  (* Advance the epoch, all-quiescent-in-[expected] already checked. *)
end

module Make (A : ADVANCE) = struct
  let name = A.name

  let props = {
    Tracker_intf.robust = false;
    needs_unreserve = false;
    mutable_pointers = true;
    bounded_slots = false;
    pointer_tag_words = 0;
    fence_per_read = false;
    summary = A.summary;
  }

  type 'a t = {
    epoch : Epoch.t;
    (* Last epoch each thread has passed a quiescent state in. *)
    quiescent : int Atomic.t array;
    base : 'a Tracker_base.t;
  }

  type 'a handle = {
    t : 'a t;
    tid : int;
    path : 'a Handoff.path;
  }

  type 'a ptr = 'a Plain_ptr.t

  (* Advance the global epoch if every thread has quiesced in it. *)
  let try_advance epoch quiescent =
    let e = Epoch.read epoch in
    if Epoch.all_reached quiescent e then A.advance epoch ~expected:e

  (* The quiescent state: no references held from here on. *)
  let quiesce epoch quiescent ~tid =
    let e = Epoch.read epoch in
    Prim.write quiescent.(tid) e;
    Ibr_obs.Probe.unreserve ~slot:0

  (* retire_epoch > e - 2, i.e. the two-grace-period threshold.  The
     advance attempt is the reclaimer's [prepare] hook: it must run
     even when the Gated backend skips the sweep, because QSBR's epoch
     only moves through it — a gate that suppressed it would wait on
     an epoch that can no longer advance.

     The caller of a forced sweep is between operations, i.e.
     quiescent: [settle] announces that, then drives up to two grace
     periods so that blocks whose other readers have all quiesced
     become reclaimable.  A slot of [max_int] reads as quiescent in
     every future epoch: [clear] parks an ejected or detached thread
     there, so it never blocks an advance again. *)
  let create ~threads cfg =
    let epoch = Epoch.create () in
    (* Initially every thread is quiescent in epoch 1. *)
    let quiescent = Array.init threads (fun _ -> Atomic.make 1) in
    let base =
      Tracker_base.create ~threads cfg
        ~prepare:(fun () -> try_advance epoch quiescent)
        ~current_epoch:(fun () -> Epoch.peek epoch)
        ~source:(fun () () ->
          let e = Epoch.read epoch in
          Reclaimer.Shape (Tracker_common.Conflict.Threshold (e - 1)))
        ~clear:(fun tid -> Prim.write quiescent.(tid) max_int)
        ~settle:(fun tid ->
          quiesce epoch quiescent ~tid;
          try_advance epoch quiescent;
          quiesce epoch quiescent ~tid;
          try_advance epoch quiescent)
        ()
    in
    { epoch; quiescent; base }

  let register t ~tid =
    Tracker_base.register t.base ~tid (fun tid path -> { t; tid; path })

  (* Dynamic registration.  A detached slot reads [max_int] ("always
     quiescent"), which must not survive reuse: a joiner is quiescent
     only *up to the attach instant*, so it publishes the current
     epoch before it can touch shared memory — otherwise two advances
     could race past its first operation and free a block it reads. *)
  let attach t =
    Tracker_base.attach t.base (fun tid path ->
      Prim.write t.quiescent.(tid) (Epoch.read t.epoch);
      { t; tid; path })

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

  let start_op _ = ()

  let end_op h = quiesce h.t.epoch h.t.quiescent ~tid:h.tid

  include Plain_ptr.Unguarded

  let retired_count h = Tracker_base.retired_count h.path
  let force_empty h = Tracker_base.force_empty h.t.base ~tid:h.tid h.path
  let allocator t = Tracker_base.allocator t.base
  let epoch_value t = Epoch.peek t.epoch
  let reclaim_service t = Tracker_base.reclaim_service t.base
  let eject t ~tid = Tracker_base.eject t.base ~tid

  (* Neutralization recovery.  QSBR protection lives in the
     quiescence announcement, not [start_op] (a no-op here): like
     [attach], re-publish the current epoch so the retried operation
     does not read as "always quiescent" while it holds references. *)
  let recover h =
    eject h.t ~tid:h.tid;
    Prim.write h.t.quiescent.(h.tid) (Epoch.read h.t.epoch);
    start_op h

  let detach h = Tracker_base.detach h.t.base ~tid:h.tid h.path
end

(* The sound scheme: strictly e -> e+1 by CAS, so racing advancers
   collapse into one grace period. *)
include Make (struct
    let name = "QSBR"
    let summary =
      "RCU-style quiescent states at op end; zero read overhead, epoch \
       frozen by any non-quiescing thread"
    let advance epoch ~expected =
      ignore (Epoch.advance_cas epoch ~expected)
  end)

(* The grace-period-skip oracle of DESIGN.md §5a.3: an unconditional
   increment lets two advancers that both validated against the same
   epoch move it twice, freeing blocks a non-quiescent reader still
   holds.  Demonstration only — [Ibr_check] finds the use-after-free
   as a minimal schedule witness. *)
module Noncas = struct
  include Make (struct
      let name = "QSBR-noncas"
      let summary =
        "UNSOUND QSBR advance: unconditional increment lets racing \
         advancers skip a grace period; kept as a demonstration oracle"
      let advance epoch ~expected:_ = Epoch.advance epoch
    end)
end
