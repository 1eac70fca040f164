(* The lifecycle chassis every sweeping tracker is built on.

   The schemes of Figs. 2–6 differ in what a thread reserves and in
   how a sweep tests a retired block against those reservations.
   Everything around that test is the same for all of them: the
   allocator (one extra slot when a background reclaimer frees from
   its own thread id), the census behind attach/detach, the handoff
   queue in front of the background reclaimer, the per-slot
   [Reclaimer], and the lifecycle operations that wire those together.
   This module owns that part once.  A scheme hands [create] its
   conflict [source] (plus [prepare] and [settle] where its epoch only
   moves when helped) and [clear], its half of [eject]; it keeps its
   reservation table and the hot-path operations ([start_op],
   [end_op], [read], [alloc]/[retire] tagging) as its own direct
   code. *)

type 'a t = {
  alloc : 'a Alloc.t;
  cfg : Tracker_intf.config;
  census : 'a Handoff.path Tracker_common.Census.t;
  handoff : 'a Handoff.t option;
  make_reclaimer : int -> 'a Reclaimer.t;
  clear : int -> unit;
  settle : int -> unit;
}

let create ~threads (cfg : Tracker_intf.config) ?prepare ~current_epoch
    ~source ~clear ?(settle = fun _ -> ()) () =
  Tracker_intf.validate ~threads cfg;
  (* The background service frees from its own thread id, one past the
     mutators'. *)
  let alloc =
    Alloc.create ~reuse:cfg.reuse ~magazine_size:cfg.magazine_size
      ~threads:(threads + if cfg.background_reclaim then 1 else 0) ()
  in
  (* [tid] only scopes the free-list; the conflict source reads global
     state, so the same constructor serves per-handle reclaimers and
     the background service's. *)
  let make_reclaimer tid =
    Reclaimer.create ~backend:cfg.retire_backend ~empty_freq:cfg.empty_freq
      ?prepare ~current_epoch ~source:(source ())
      ~free:(fun b -> Alloc.free alloc ~tid b)
      ()
  in
  let census = Tracker_common.Census.create threads in
  let handoff =
    if cfg.background_reclaim then
      Some
        (Handoff.create ~producers:threads ~batch:cfg.handoff_batch
           (make_reclaimer threads))
    else None
  in
  { alloc; cfg; census; handoff; make_reclaimer; clear; settle }

let new_path t ~tid =
  match t.handoff with
  | Some h -> Handoff.Queued h
  | None -> Handoff.Direct (t.make_reclaimer tid)

let hook_pressure t ~tid path =
  Alloc.set_pressure_hook t.alloc ~tid (fun () -> Handoff.path_pressure path)

let register t ~tid handle =
  let path = new_path t ~tid in
  hook_pressure t ~tid path;
  handle tid path

(* Dynamic registration: claim a free census slot ([None] when all are
   taken).  The slot's reclaimer path is created once and adopted by
   later occupants, so retirements a departing thread could not yet
   free stay owned by the slot. *)
let attach t handle =
  match
    Tracker_common.Census.try_attach t.census ~make:(fun tid ->
      new_path t ~tid)
  with
  | None -> None
  | Some (tid, path) ->
    hook_pressure t ~tid path;
    Some (handle tid path)

let retired_count path = Handoff.path_count path

let force_empty t ~tid path =
  Handoff.path_drain path ~tid;
  t.settle tid;
  Reclaimer.force (Handoff.path_reclaimer path)

let allocator t = t.alloc
let reclaim_service t = Option.map Handoff.service t.handoff

(* Flush the victim's producer-private handoff scratch first — batched
   retires still buffered there are invisible to the drainer and would
   otherwise stay stranded until detach — then drop its
   reservations. *)
let eject t ~tid =
  (match t.handoff with Some h -> Handoff.flush_own h ~tid | None -> ());
  t.clear tid

let release t ~tid =
  Alloc.flush_magazines t.alloc ~tid;
  Tracker_common.Census.detach t.census ~tid

(* A last drain-and-sweep while still registered, publish the
   quiescent reservation, return the magazines to the depot, then
   release the census slot — in that order, so a joiner reusing the
   slot can never alias a reservation this thread still held
   (DESIGN.md §10). *)
let detach t ~tid path =
  force_empty t ~tid path;
  eject t ~tid;
  release t ~tid

(* The epoch-family threshold: reclaim every block retired before the
   oldest posted reservation (O(1) per block under any backend). *)
let oldest_reservation reservations =
  let reservations = Tracker_common.snapshot_reservations reservations in
  let max_safe = Array.fold_left min max_int reservations in
  Reclaimer.Shape (Tracker_common.Conflict.Threshold max_safe)
