(* A deliberately *incorrect* scheme: retire frees immediately,
   without waiting for readers.  It exists to validate the fault
   checker — under adversarial schedules it must produce
   use-after-free faults where every correct scheme produces none —
   and to demonstrate in examples what reclamation safety buys. *)

let name = "UnsafeFree"

let props = {
  Tracker_intf.robust = true;  (* vacuously: it never defers anything *)
  needs_unreserve = false;
  mutable_pointers = true;
  bounded_slots = false;
  pointer_tag_words = 0;
  fence_per_read = false;
  summary = "INCORRECT test oracle: frees on retire, no reader protection";
}

type 'a t = {
  alloc : 'a Alloc.t;
  census : unit Tracker_common.Census.t;
}

type 'a handle = { t : 'a t; tid : int }

type 'a ptr = 'a Plain_ptr.t

let create ~threads (cfg : Tracker_intf.config) =
  Tracker_intf.validate ~threads cfg;
  (* Frees on retire: there is no deferred work to hand off, so
     [background_reclaim] is ignored and [reclaim_service] is [None]. *)
  { alloc =
      Alloc.create ~reuse:cfg.reuse ~magazine_size:cfg.magazine_size
        ~threads ();
    census = Tracker_common.Census.create threads }

let register t ~tid = { t; tid }

(* Dynamic registration: no reservations, no retired store — only the
   census slot itself. *)
let attach t =
  match Tracker_common.Census.try_attach t.census ~make:(fun _ -> ()) with
  | None -> None
  | Some (tid, ()) -> Some { t; tid }

let handle_tid h = h.tid

let alloc h payload = Alloc.alloc h.t.alloc ~tid:h.tid payload
let dealloc h b = Alloc.free_unpublished h.t.alloc ~tid:h.tid b

let retire h b =
  (* No Reclaimer here: emit the retire probe directly, so the traced
     retire→reclaim interval exists (and is zero-length, which is the
     whole point of this deliberately unsafe scheme). *)
  Ibr_obs.Probe.retire ~block:(Block.id b);
  Block.transition_retire b;
  Alloc.free h.t.alloc ~tid:h.tid b

let start_op _ = ()
let end_op _ = ()

include Plain_ptr.Unguarded

let retired_count _ = 0
let force_empty _ = ()
let allocator t = t.alloc
let epoch_value _ = 0
let reclaim_service _ = None

(* Holds no reservations: nothing to expire. *)
let eject _ ~tid:_ = ()

(* Nothing to drop, nothing to re-protect (nothing was protected to
   begin with — that is this oracle's bug). *)
let recover _ = ()

(* Dynamic deregistration: nothing deferred to flush. *)
let detach h =
  Alloc.flush_magazines h.t.alloc ~tid:h.tid;
  Tracker_common.Census.detach h.t.census ~tid:h.tid
