(* Hazard pointers (Michael [20]; paper §2.3).

   One block-granularity reservation per slot.  The protect protocol:
   read the cell, publish the target to a hazard slot, fence, re-read
   the cell; only if unchanged may the block be dereferenced.  The
   per-read fence is the scheme's defining cost; precision (exactly
   the in-use blocks are reserved) is its defining benefit. *)

let name = "HP"

let props = {
  Tracker_intf.robust = true;
  needs_unreserve = true;
  mutable_pointers = true;
  bounded_slots = true;
  pointer_tag_words = 0;
  fence_per_read = true;
  summary =
    "copy of every active pointer; precise but fence per read and \
     explicit unreserve";
}

(* A hazard slot holds a raw block reference (not a view): marks need
   no protection, only the block does. *)
type 'a slot_table = 'a Block.t option Atomic.t array array

type 'a t = {
  slots : 'a slot_table;
  base : 'a Tracker_base.t;
}

type 'a handle = {
  t : 'a t;
  tid : int;
  mutable hwm : int;   (* highest slot used this op, for cheap end_op *)
  path : 'a Handoff.path;
}

type 'a ptr = 'a Plain_ptr.t

(* Michael's scan: snapshot all hazard slots into an id set, then
   sweep the local retired store against membership.  An opaque
   predicate — blocks carry no retire epochs here, so the bucketed
   backends degenerate to per-block tests (and, with the epoch peek
   pinned at 0, Gated never gates).  The id set is reused across
   sweeps so a scan does not allocate (and regrow) a fresh table;
   cleared, not reset, to keep its buckets.  One per reclaimer: the
   background service sweeps with its own scratch. *)
let hazard_source slots () =
  let hazard_scratch : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  fun () ->
    Hashtbl.clear hazard_scratch;
    let entries = ref 0 in
    Array.iter (fun row ->
      Array.iter (fun slot ->
        Prim.charge_scan ();
        incr entries;
        match Atomic.get slot with
        | None -> ()
        | Some b -> Hashtbl.replace hazard_scratch (Block.id b) ())
        row)
      slots;
    Tracker_common.Sweep_stats.note_snapshot ~entries:!entries
      ~cycles:(!entries * !Prim.costs.Ibr_runtime.Cost.scan_reservation);
    Reclaimer.Predicate (fun b -> Hashtbl.mem hazard_scratch (Block.id b))

let create ~threads (cfg : Tracker_intf.config) =
  let slots =
    Array.init threads (fun _ ->
      Array.init cfg.slots (fun _ -> Atomic.make None))
  in
  let base =
    Tracker_base.create ~threads cfg
      ~current_epoch:(fun () -> 0)
      ~source:(hazard_source slots)
      ~clear:(fun tid ->
        Array.iter (fun slot -> Prim.write slot None) slots.(tid))
      ()
  in
  { slots; base }

let handle t tid path = { t; tid; hwm = -1; path }
let register t ~tid = Tracker_base.register t.base ~tid (handle t)

(* Dynamic registration.  A released row was cleared by the leaver's
   detach, which is exactly a fresh row's state: no hazard published
   until the first protected read. *)
let attach t = Tracker_base.attach t.base (handle t)

let handle_tid h = h.tid

let alloc h payload = Alloc.alloc h.t.base.alloc ~tid:h.tid payload
let dealloc h b = Alloc.free_unpublished h.t.base.alloc ~tid:h.tid b

let retire h b =
  Block.transition_retire b;
  Handoff.path_add h.path ~tid:h.tid b

let start_op h = h.hwm <- -1

(* Clear only the slots this operation actually used. *)
let end_op h =
  let row = h.t.slots.(h.tid) in
  for i = 0 to h.hwm do
    if Prim.read row.(i) <> None then begin
      Prim.write row.(i) None;
      Ibr_obs.Probe.unreserve ~slot:i
    end
  done;
  h.hwm <- -1

let make_ptr _ ?tag target = Plain_ptr.make ?tag target

let read h ~slot p =
  if h.hwm < slot then h.hwm <- slot;
  let cell = h.t.slots.(h.tid).(slot) in
  let rec loop () =
    let v = Plain_ptr.read p in
    (match View.target v with
     | None -> v   (* null needs no protection *)
     | Some b ->
       Prim.write cell (Some b);
       Ibr_obs.Probe.reserve ~slot;
       Prim.fence ();
       let v' = Plain_ptr.read p in
       if v == v' then v else loop ())
  in
  loop ()

let read_root h p = read h ~slot:0 p
let write _ p ?tag target = Plain_ptr.write p ?tag target
let cas _ p ~expected ?tag target = Plain_ptr.cas p ~expected ?tag target

let unreserve h ~slot =
  Prim.write h.t.slots.(h.tid).(slot) None;
  Ibr_obs.Probe.unreserve ~slot

(* Copy a protection between slots: the target is already protected by
   [src], so no fence or re-validation is needed. *)
let reassign h ~src ~dst =
  if h.hwm < dst then h.hwm <- dst;
  let row = h.t.slots.(h.tid) in
  Prim.local 1;
  Prim.write row.(dst) (Prim.read row.(src));
  Ibr_obs.Probe.reserve ~slot:dst

let retired_count h = Tracker_base.retired_count h.path
let force_empty h = Tracker_base.force_empty h.t.base ~tid:h.tid h.path
let allocator t = Tracker_base.allocator t.base
let epoch_value _ = 0
let reclaim_service t = Tracker_base.reclaim_service t.base

(* Neutralize a dead thread: clear every hazard slot in its row. *)
let eject t ~tid = Tracker_base.eject t.base ~tid

(* Neutralization recovery: hazard pointers are per-read, so dropping
   the row plus a fresh [start_op] suffices — the retried traversal
   re-publishes each hazard as it reads. *)
let recover h =
  eject h.t ~tid:h.tid;
  start_op h

let detach h = Tracker_base.detach h.t.base ~tid:h.tid h.path
