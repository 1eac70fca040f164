(* Persistent-object IBR (paper §3.1, Fig. 4).

   For data structures where every pointer except the root is
   immutable.  A single reserved epoch per thread, posted with the
   snapshot idiom when the root is read: because the root is the
   newest block and all interior pointers are immutable, an epoch that
   intersects the root's lifetime intersects the lifetime of
   everything reachable from it.  Interior reads are completely
   uninstrumented — cheaper even than EBR's reads. *)

let name = "POIBR"

let props = {
  Tracker_intf.robust = true;
  needs_unreserve = false;
  mutable_pointers = false;
  bounded_slots = false;
  pointer_tag_words = 0;
  fence_per_read = false;
  summary =
    "start epoch covers everything reachable from the root at start \
     time; all pointers but the root must be immutable";
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

(* Fig. 4 lines 1–8: a block is protected iff some reserved epoch lies
   within its lifetime.  The snapshot is sorted once so each block's
   test is a binary search, not a scan of every thread's slot. *)
let create ~threads cfg =
  let epoch = Epoch.create () in
  let reservations = Array.init threads (fun _ -> Atomic.make max_int) in
  let base =
    Tracker_base.create ~threads cfg
      ~current_epoch:(fun () -> Epoch.peek epoch)
      ~source:(fun () () ->
        Reclaimer.Shape
          (Tracker_common.Conflict.Intervals
             (Tracker_common.Sweep_snapshot.of_points ~none:max_int
                (Tracker_common.snapshot_reservations reservations))))
      ~clear:(fun tid -> Prim.write reservations.(tid) max_int)
      ()
  in
  { epoch; reservations; base }

let handle t tid path = { t; tid; alloc_counter = ref 0; path }
let register t ~tid = Tracker_base.register t.base ~tid (handle t)

(* Dynamic registration.  A released slot reads [max_int]
   (unreserved), which is a joiner's correct state until its first
   guarded root read. *)
let attach t = Tracker_base.attach t.base (handle t)

let handle_tid h = h.tid

(* Fig. 4 lines 9–15: epoch tick on allocation, tag the birth epoch. *)
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
  Prim.write h.t.reservations.(h.tid) e;
  Ibr_obs.Probe.reserve ~slot:0

let end_op h =
  Prim.write h.t.reservations.(h.tid) max_int;
  Ibr_obs.Probe.unreserve ~slot:0

let make_ptr _ ?tag target = Plain_ptr.make ?tag target

(* Interior pointers are immutable, so a plain read is already safe:
   the root reservation covers the whole reachable set. *)
let read _ ~slot:_ p = Plain_ptr.read p

(* Fig. 4 lines 25–30: reserve the epoch, fence, read the root, and
   verify the epoch is unchanged — the "snapshot" idiom that pins the
   root's contents inside the reserved epoch. *)
let read_root h p =
  let cell = h.t.reservations.(h.tid) in
  let rec loop () =
    let e = Epoch.read h.t.epoch in
    Prim.write cell e;
    Prim.fence ();
    let v = Plain_ptr.read p in
    let e' = Epoch.read h.t.epoch in
    if e = e' then v else loop ()
  in
  loop ()

let write _ p ?tag target = Plain_ptr.write p ?tag target
let cas _ p ~expected ?tag target = Plain_ptr.cas p ~expected ?tag target
let unreserve _ ~slot:_ = ()
let reassign _ ~src:_ ~dst:_ = ()

let retired_count h = Tracker_base.retired_count h.path
let force_empty h = Tracker_base.force_empty h.t.base ~tid:h.tid h.path
let allocator t = Tracker_base.allocator t.base
let epoch_value t = Epoch.peek t.epoch
let reclaim_service t = Tracker_base.reclaim_service t.base

(* Neutralize a dead thread: clearing its epoch reservation unpins
   everything reachable from the root it had snapshotted. *)
let eject t ~tid = Tracker_base.eject t.base ~tid

(* Neutralization recovery: self-expire, then re-protect as a fresh
   [start_op]; the retried traversal re-guards from the root. *)
let recover h =
  eject h.t ~tid:h.tid;
  start_op h

let detach h = Tracker_base.detach h.t.base ~tid:h.tid h.path
