(* Shared chassis for the interval-based schemes of §3.2–3.3.

   TagIBR (CAS and FAA flavours), TagIBR-WCAS, TagIBR-TPA and 2GEIBR
   all keep a per-thread [lower, upper] epoch interval, advance the
   epoch on allocation, tag blocks with birth/retire epochs, and
   reclaim by interval intersection.  They differ only in the shared
   pointer representation and in how a read extends the upper
   endpoint — which is what the [POINTER_OPS] parameter captures. *)

module type POINTER_OPS = sig
  val name : string
  val props : Tracker_intf.properties

  type 'a ptr

  val make_ptr : ?tag:int -> 'a Block.t option -> 'a ptr

  val read :
    epoch:Epoch.t -> upper:int Atomic.t -> 'a ptr -> 'a View.t
  (* Must return a view only once the thread's upper endpoint
     provably covers the target's birth epoch *and* that reservation
     was visible when the returned view was (re-)read. *)

  val write : 'a ptr -> ?tag:int -> 'a Block.t option -> unit
  val cas :
    'a ptr -> expected:'a View.t -> ?tag:int -> 'a Block.t option -> bool
end

module Make (P : POINTER_OPS) : Tracker_intf.TRACKER = struct
  let name = P.name
  let props = P.props

  type 'a t = {
    epoch : Epoch.t;
    res : Tracker_common.Interval_res.t;
    base : 'a Tracker_base.t;
  }

  type 'a handle = {
    t : 'a t;
    tid : int;
    alloc_counter : int ref;
    path : 'a Handoff.path;
  }

  type 'a ptr = 'a P.ptr

  (* Fig. 5 lines 22–29: interval-intersection sweep.  The table is
     digested once into a sorted snapshot; each block then pays
     O(log T) instead of a rescan of every thread's endpoints. *)
  let create ~threads cfg =
    let epoch = Epoch.create () in
    let res = Tracker_common.Interval_res.create threads in
    let base =
      Tracker_base.create ~threads cfg
        ~current_epoch:(fun () -> Epoch.peek epoch)
        ~source:(fun () () ->
          Reclaimer.Shape
            (Tracker_common.Conflict.Intervals
               (Tracker_common.Interval_res.sweep_snapshot res)))
        ~clear:(fun tid -> Tracker_common.Interval_res.clear res ~tid)
        ()
    in
    { epoch; res; base }

  let handle t tid path = { t; tid; alloc_counter = ref 0; path }
  let register t ~tid = Tracker_base.register t.base ~tid (handle t)
  let attach t = Tracker_base.attach t.base (handle t)

  let handle_tid h = h.tid

  (* Fig. 5 lines 30–36: epoch tick on allocation, tag birth epoch. *)
  let alloc h payload =
    Epoch.tick h.t.epoch ~counter:h.alloc_counter
      ~freq:h.t.base.cfg.epoch_freq;
    let b = Alloc.alloc h.t.base.alloc ~tid:h.tid payload in
    Block.set_birth_epoch b (Epoch.read h.t.epoch);
    b

  let dealloc h b = Alloc.free_unpublished h.t.base.alloc ~tid:h.tid b

  let retire h b =
    Block.transition_retire b;
    Block.set_retire_epoch b (Epoch.read h.t.epoch);
    Handoff.path_add h.path ~tid:h.tid b

  let start_op h =
    let e = Epoch.read h.t.epoch in
    Tracker_common.Interval_res.start h.t.res ~tid:h.tid e;
    Ibr_obs.Probe.reserve ~slot:0

  let end_op h =
    Tracker_common.Interval_res.clear h.t.res ~tid:h.tid;
    Ibr_obs.Probe.unreserve ~slot:0

  let make_ptr _ ?tag target = P.make_ptr ?tag target

  let read h ~slot:_ p =
    let upper = Tracker_common.Interval_res.upper_cell h.t.res ~tid:h.tid in
    P.read ~epoch:h.t.epoch ~upper p

  let read_root h p = read h ~slot:0 p

  let write _ p ?tag target = P.write p ?tag target
  let cas _ p ~expected ?tag target = P.cas p ~expected ?tag target
  let unreserve _ ~slot:_ = ()
  let reassign _ ~src:_ ~dst:_ = ()

  let retired_count h = Tracker_base.retired_count h.path
  let force_empty h = Tracker_base.force_empty h.t.base ~tid:h.tid h.path
  let allocator t = Tracker_base.allocator t.base
  let epoch_value t = Epoch.peek t.epoch
  let reclaim_service t = Tracker_base.reclaim_service t.base

  (* Neutralize a dead thread: clearing its [lower, upper] interval
     unpins every block whose lifetime it intersected. *)
  let eject t ~tid = Tracker_base.eject t.base ~tid

  (* Neutralization recovery: drop the interval, then open a fresh one
     at the current epoch as [start_op] does; the retried traversal
     re-extends the upper endpoint read by read. *)
  let recover h =
    eject h.t ~tid:h.tid;
    start_op h

  let detach h = Tracker_base.detach h.t.base ~tid:h.tid h.path
end
