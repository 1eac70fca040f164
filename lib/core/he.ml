(* Hazard eras (Ramalhete & Correia [25]; paper §2.3).

   HP's slot discipline with epochs as the reservation currency: a
   slot holds the era in which a pointer was read, and a block is
   reclaimable only when no reserved era falls within its
   [birth, retire] lifetime.  The protect loop publishes the current
   era and fences only when the era has changed since the slot's last
   publication — eras change rarely, so the amortized per-read cost is
   far below HP's. *)

let name = "HE"

let props = {
  Tracker_intf.robust = true;
  needs_unreserve = true;
  mutable_pointers = true;
  bounded_slots = true;
  pointer_tag_words = 0;
  fence_per_read = false;
  summary =
    "era per active pointer; less precise than HP, far fewer fences";
}

(* Era 0 = empty slot (global era starts at 1). *)
let no_era = 0

type 'a t = {
  epoch : Epoch.t;
  eras : int Atomic.t array array;   (* eras.(tid).(slot) *)
  base : 'a Tracker_base.t;
}

type 'a handle = {
  t : 'a t;
  tid : int;
  alloc_counter : int ref;
  mutable hwm : int;
  path : 'a Handoff.path;
}

type 'a ptr = 'a Plain_ptr.t

(* A block survives if any reserved era intersects its lifetime.  The
   era table is read once into a flat array, then digested into a
   sorted snapshot so each block's test is a binary search rather than
   a walk of every reserved era. *)
let scan_eras eras ~slots =
  let threads = Array.length eras in
  let flat = Array.make (threads * slots) no_era in
  Array.iteri (fun i row ->
    Array.iteri (fun j slot ->
      Prim.charge_scan ();
      flat.((i * slots) + j) <- Atomic.get slot)
      row)
    eras;
  Tracker_common.Sweep_stats.note_snapshot ~entries:(threads * slots)
    ~cycles:
      (threads * slots * !Prim.costs.Ibr_runtime.Cost.scan_reservation);
  Reclaimer.Shape
    (Tracker_common.Conflict.Intervals
       (Tracker_common.Sweep_snapshot.of_points ~none:no_era flat))

let create ~threads (cfg : Tracker_intf.config) =
  let epoch = Epoch.create () in
  let eras =
    Array.init threads (fun _ ->
      Array.init cfg.slots (fun _ -> Atomic.make no_era))
  in
  let base =
    Tracker_base.create ~threads cfg
      ~current_epoch:(fun () -> Epoch.peek epoch)
      ~source:(fun () () -> scan_eras eras ~slots:cfg.slots)
      ~clear:(fun tid ->
        Array.iter (fun slot -> Prim.write slot no_era) eras.(tid))
      ()
  in
  { epoch; eras; base }

let handle t tid path = { t; tid; alloc_counter = ref 0; hwm = -1; path }
let register t ~tid = Tracker_base.register t.base ~tid (handle t)

(* Dynamic registration.  A released era row was cleared to [no_era]
   by the leaver's detach — a fresh row's state. *)
let attach t = Tracker_base.attach t.base (handle t)

let handle_tid h = h.tid

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

let start_op h = h.hwm <- -1

let end_op h =
  let row = h.t.eras.(h.tid) in
  for i = 0 to h.hwm do
    if Prim.read row.(i) <> no_era then begin
      Prim.write row.(i) no_era;
      Ibr_obs.Probe.unreserve ~slot:i
    end
  done;
  h.hwm <- -1

let make_ptr _ ?tag target = Plain_ptr.make ?tag target

(* get_protected: return a pointer only if it was read while the
   current era was already published in [slot]; otherwise publish the
   new era, fence, and re-read. *)
let read h ~slot p =
  if h.hwm < slot then h.hwm <- slot;
  let cell = h.t.eras.(h.tid).(slot) in
  let rec loop prev_era =
    let v = Plain_ptr.read p in
    let era = Epoch.read h.t.epoch in
    if era = prev_era then v
    else begin
      Prim.write cell era;
      Ibr_obs.Probe.reserve ~slot;
      Prim.fence ();
      loop era
    end
  in
  loop (Prim.read cell)

let read_root h p = read h ~slot:0 p
let write _ p ?tag target = Plain_ptr.write p ?tag target
let cas _ p ~expected ?tag target = Plain_ptr.cas p ~expected ?tag target

let unreserve h ~slot =
  Prim.write h.t.eras.(h.tid).(slot) no_era;
  Ibr_obs.Probe.unreserve ~slot

let reassign h ~src ~dst =
  if h.hwm < dst then h.hwm <- dst;
  let row = h.t.eras.(h.tid) in
  Prim.local 1;
  Prim.write row.(dst) (Prim.read row.(src));
  Ibr_obs.Probe.reserve ~slot:dst

let retired_count h = Tracker_base.retired_count h.path
let force_empty h = Tracker_base.force_empty h.t.base ~tid:h.tid h.path
let allocator t = Tracker_base.allocator t.base
let epoch_value t = Epoch.peek t.epoch
let reclaim_service t = Tracker_base.reclaim_service t.base

(* Neutralize a dead thread: clear every era slot in its row. *)
let eject t ~tid = Tracker_base.eject t.base ~tid

(* Neutralization recovery: era slots are per-read; drop the row and
   re-protect as a fresh [start_op]. *)
let recover h =
  eject h.t ~tid:h.tid;
  start_op h

let detach h = Tracker_base.detach h.t.base ~tid:h.tid h.path
