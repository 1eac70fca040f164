(* The retirement side of every tracker, as one pluggable layer.

   Every scheme used to own a hand-rolled copy of the same pipeline:
   a per-thread retired list, an [empty_freq] countdown, and a sweep
   that conflict-tests *every* retired block even when nothing can
   possibly be freed.  This module owns that pipeline once, behind a
   backend choice threaded through [Tracker_intf.config]:

   - [List]    — the original single list, swept in full.  Kept as the
                 differential-testing oracle and the ablation baseline.
   - [Buckets] — epoch-bucketed limbo lists (DEBRA's layout): blocks
                 sharing a retire epoch share a bucket, buckets are
                 kept sorted by retire epoch.  A [Threshold] sweep
                 (EBR/QSBR/Fraser) frees or keeps whole buckets without
                 touching their blocks — O(freed + buckets) instead of
                 O(retired) — and an [Intervals] sweep (HE/POIBR/IBR
                 family) frees wholesale every bucket older than the
                 smallest reserved lower endpoint before falling back
                 to per-block tests.
   - [Gated]   — [Buckets] plus sweep gating: after a sweep that freed
                 nothing, the whole sweep (reservation snapshot
                 included) is skipped until the global epoch moves,
                 because the conflict bound that just kept every block
                 is typically still in force.  A heuristic, not a
                 safety property: gating can only defer frees, never
                 admit one, and [force] bypasses it.

   The tracker supplies its conflict source as closures at [create]
   time (through the [Tracker_base] chassis for every sweeping
   scheme); the sweep itself — storage walk, wholesale frees,
   telemetry — is shared by all of them. *)

type backend = List | Buckets | Gated

let backend_name = function
  | List -> "list"
  | Buckets -> "buckets"
  | Gated -> "gated"

let backend_of_string s =
  match String.lowercase_ascii s with
  | "list" -> Some List
  | "buckets" -> Some Buckets
  | "gated" -> Some Gated
  | _ -> None

let all_backends = [ List; Buckets; Gated ]

(* What a sweep tests blocks against: the structured conflicts of
   [Tracker_common.Conflict] (which the bucket walk can exploit), or
   an opaque per-block predicate (HP's hazard-id set, a reference
   linear-scan predicate under test) that forces per-block
   examination. *)
type 'a test =
  | Shape of Tracker_common.Conflict.t
  | Predicate of ('a Block.t -> bool)

let pred_of = function
  | Shape c -> Tracker_common.Conflict.pred c
  | Predicate p -> p

(* One limbo bucket: every block in it was retired in [epoch]. *)
type 'a bucket = {
  epoch : int;
  mutable blocks : 'a Block.t list;
  mutable size : int;
}

type 'a bucketed = {
  mutable newest : 'a bucket list; (* strictly descending retire epoch *)
  mutable count : int;
}

type 'a store =
  | Flat of 'a Tracker_common.Retired.t
  | Bucketed of 'a bucketed

type 'a t = {
  backend : backend;
  empty_freq : int;
  prepare : unit -> unit;
  (* Run at every retire-cadence sweep attempt, *before* the gate is
     consulted (QSBR/Fraser epoch advancement lives here — it must run
     even when the sweep itself is skipped, or the gate could never be
     invalidated). *)
  current_epoch : unit -> int;
  (* Uncharged peek at the global epoch; must return 0 for epoch-less
     schemes (HP), which disables gating. *)
  source : unit -> 'a test;
  (* Build the conflict test; the expensive part (reservation
     snapshot) that [Gated] avoids rebuilding. *)
  free : 'a Block.t -> unit;
  store : 'a store;
  mutable retire_counter : int;
  mutable total_retired : int;
  mutable total_reclaimed : int;
  mutable gate_epoch : int; (* epoch of the last zero-free sweep; -1 = open *)
  mutable gate_bound : int; (* conflict bound cached by that sweep *)
}

let create ~backend ~empty_freq ?(prepare = fun () -> ()) ~current_epoch
    ~source ~free () =
  let store =
    match backend with
    | List -> Flat (Tracker_common.Retired.create ())
    | Buckets | Gated -> Bucketed { newest = []; count = 0 }
  in
  { backend; empty_freq; prepare; current_epoch; source; free; store;
    retire_counter = 0; total_retired = 0; total_reclaimed = 0;
    gate_epoch = -1; gate_bound = max_int }

let count t =
  match t.store with
  | Flat r -> Tracker_common.Retired.count r
  | Bucketed bs -> bs.count

let total_retired t = t.total_retired
let total_reclaimed t = t.total_reclaimed

let gate t = if t.gate_epoch < 0 then None else Some (t.gate_epoch, t.gate_bound)

let bucket_count t =
  match t.store with
  | Flat _ -> 0
  | Bucketed bs -> List.length bs.newest

let iter t f =
  match t.store with
  | Flat r -> Tracker_common.Retired.iter r f
  | Bucketed bs ->
    List.iter (fun bk -> List.iter f bk.blocks) bs.newest

(* Unconditional teardown drain: remove every block from the store and
   hand it to [f] — no conflict test, no gate.  This is exactly the
   "free your limbo list on exit without looking at anyone's
   reservations" mistake.  Its callers are the [Ebr.Noflush]
   demonstration oracle, which models a broken detach with it (a pure
   reservation-ignoring free, with the store left consistent), and
   benchmark kernels that empty a store between timed sweeps.  No
   sound tracker path calls it. *)
let drain_all t f =
  match t.store with
  | Flat r ->
    let blocks = r.Tracker_common.Retired.blocks in
    let n = r.Tracker_common.Retired.count in
    r.Tracker_common.Retired.blocks <- [];
    r.Tracker_common.Retired.count <- 0;
    r.Tracker_common.Retired.total_reclaimed <-
      r.Tracker_common.Retired.total_reclaimed + n;
    t.total_reclaimed <- t.total_reclaimed + n;
    List.iter f blocks
  | Bucketed bs ->
    let buckets = bs.newest in
    bs.newest <- [];
    t.total_reclaimed <- t.total_reclaimed + bs.count;
    bs.count <- 0;
    List.iter (fun bk -> List.iter f bk.blocks) buckets

(* Retire epochs are non-decreasing (the global epoch is monotone), so
   a new retirement lands in the head bucket or opens a fresh one in
   O(1); the splice loop only runs for out-of-order epochs, which a
   monotone epoch never produces but the structure stays correct for. *)
let bucket_add bs b =
  let e = Block.retire_epoch b in
  Prim.local 1;
  (match bs.newest with
   | bk :: _ when bk.epoch = e ->
     bk.blocks <- b :: bk.blocks;
     bk.size <- bk.size + 1
   | [] -> bs.newest <- [ { epoch = e; blocks = [ b ]; size = 1 } ]
   | bk :: _ when bk.epoch < e ->
     bs.newest <- { epoch = e; blocks = [ b ]; size = 1 } :: bs.newest
   | _ ->
     let rec splice = function
       | bk :: rest when bk.epoch > e -> bk :: splice rest
       | bk :: rest when bk.epoch = e ->
         bk.blocks <- b :: bk.blocks;
         bk.size <- bk.size + 1;
         bk :: rest
       | rest -> { epoch = e; blocks = [ b ]; size = 1 } :: rest
     in
     bs.newest <- splice bs.newest);
  bs.count <- bs.count + 1

(* Sweep the bucketed store.  [examined] counts only per-block conflict
   tests — wholesale bucket decisions charge one local step for the
   bucket header and never look at the blocks, which is exactly the
   O(freed + buckets) the backend exists for. *)
let bucket_sweep t bs test =
  Tracker_common.Sweep_stats.note_buckets (List.length bs.newest);
  (* Decide-then-commit-then-free: the walk only *condemns* blocks
     (accumulating them), the surviving store is committed in one
     mutation, and the frees run last.  The decide phase charges cost
     (preemption points), so a horizon stop or crash that lands inside
     it leaves every block still in the store; one landing inside the
     free loop can only leak condemned blocks — never leave a freed
     block where a later sweep (the background reclaimer's shutdown
     flush, a pressure sweep from another path) would free it again. *)
  let examined = ref 0 and doomed = ref [] and freed = ref 0 in
  let condemn b =
    doomed := b :: !doomed;
    incr freed
  in
  let condemn_whole bk = List.iter condemn bk.blocks in
  (* Per-block fallback inside one bucket; None when it drained. *)
  let filter_bucket pred bk =
    let kept =
      List.filter
        (fun b ->
           Prim.local 1;
           incr examined;
           if pred b then true
           else begin
             condemn b;
             false
           end)
        bk.blocks
    in
    match kept with
    | [] -> None
    | blocks ->
      bk.blocks <- blocks;
      bk.size <- List.length blocks;
      Some bk
  in
  let kept =
    match test with
    | Shape Tracker_common.Conflict.Never ->
      List.iter
        (fun bk ->
           Prim.local 1;
           condemn_whole bk)
        bs.newest;
      []
    | Shape (Tracker_common.Conflict.Threshold n) ->
      (* Descending epochs: the protected buckets (epoch >= n) form a
         prefix, kept without examining a single block; everything
         after the first unprotected bucket frees wholesale. *)
      let rec split = function
        | bk :: rest when bk.epoch >= n ->
          Prim.local 1;
          bk :: split rest
        | old ->
          List.iter
            (fun bk ->
               Prim.local 1;
               condemn_whole bk)
            old;
          []
      in
      split bs.newest
    | Shape (Tracker_common.Conflict.Intervals s) ->
      (* Buckets older than every reserved lower endpoint cannot
         intersect any interval; the rest degenerate to per-block
         tests (birth epochs differ within a bucket). *)
      let lo_min = Tracker_common.Sweep_snapshot.min_lower s in
      let pred =
        Tracker_common.Conflict.pred (Tracker_common.Conflict.Intervals s)
      in
      List.filter_map
        (fun bk ->
           Prim.local 1;
           if bk.epoch < lo_min then begin
             condemn_whole bk;
             None
           end
           else filter_bucket pred bk)
        bs.newest
    | Predicate p ->
      List.filter_map
        (fun bk ->
           Prim.local 1;
           filter_bucket p bk)
        bs.newest
  in
  bs.newest <- kept;
  bs.count <- List.fold_left (fun acc bk -> acc + bk.size) 0 kept;
  Tracker_common.Sweep_stats.note_sweep ~examined:!examined ~freed:!freed;
  List.iter
    (fun b ->
       t.total_reclaimed <- t.total_reclaimed + 1;
       t.free b)
    (List.rev !doomed);
  !freed

(* The gate's observable for re-arming: the bound the failed sweep
   tested against, recorded for diagnostics and tests. *)
let bound_of = function
  | Shape Tracker_common.Conflict.Never -> max_int
  | Shape (Tracker_common.Conflict.Threshold n) -> n
  | Shape (Tracker_common.Conflict.Intervals s) ->
    Tracker_common.Sweep_snapshot.min_lower s
  | Predicate _ -> min_int

let run_sweep t =
  t.gate_epoch <- -1;
  Ibr_obs.Probe.sweep_begin ~phase:Ibr_obs.Probe.Snapshot;
  let test = t.source () in
  Ibr_obs.Probe.sweep_end ~phase:Ibr_obs.Probe.Snapshot ~freed:0;
  Ibr_obs.Probe.sweep_begin ~phase:Ibr_obs.Probe.Scan;
  let freed =
    match t.store with
    | Flat r ->
      let before = Tracker_common.Retired.count r in
      Tracker_common.Retired.sweep r ~conflict:(pred_of test)
        ~free:(fun b ->
          t.free b;
          t.total_reclaimed <- t.total_reclaimed + 1);
      before - Tracker_common.Retired.count r
    | Bucketed bs -> bucket_sweep t bs test
  in
  Ibr_obs.Probe.sweep_end ~phase:Ibr_obs.Probe.Scan ~freed;
  (* Gate invalidation rule: arm only after a zero-free sweep that
     left work behind, and only when there is a real epoch to watch
     (epoch-less schemes report 0 and never gate); the gate opens when
     the epoch moves past the recorded value, when a sweep frees, or
     when [force] bypasses it. *)
  if t.backend = Gated && freed = 0 && count t > 0 then begin
    let e = t.current_epoch () in
    if e > 0 then begin
      t.gate_epoch <- e;
      t.gate_bound <- bound_of test
    end
  end

let prepare t =
  Ibr_obs.Probe.sweep_begin ~phase:Ibr_obs.Probe.Prepare;
  t.prepare ();
  Ibr_obs.Probe.sweep_end ~phase:Ibr_obs.Probe.Prepare ~freed:0

let sweep t =
  prepare t;
  if
    t.backend = Gated && t.gate_epoch >= 0
    && t.current_epoch () = t.gate_epoch
  then Tracker_common.Sweep_stats.note_skip ()
  else run_sweep t

(* Forced sweep ([force_empty]): the tracker has already done its own
   preparation (QSBR drives grace periods first), so no [prepare], and
   the gate is bypassed and cleared. *)
let force t = run_sweep t

(* Memory-pressure sweep (the allocator's backpressure hook): run
   [prepare] — a capped heap must still help the epoch forward, or
   QSBR/Fraser could never free anything under pressure — then sweep
   unconditionally, bypassing the gate. *)
let pressure t =
  prepare t;
  run_sweep t

let add t b =
  Ibr_obs.Probe.retire ~block:(Block.id b);
  (match t.store with
   | Flat r -> Tracker_common.Retired.add r b
   | Bucketed bs -> bucket_add bs b);
  t.total_retired <- t.total_retired + 1;
  t.retire_counter <- t.retire_counter + 1;
  if t.empty_freq > 0 && t.retire_counter mod t.empty_freq = 0 then sweep t
