(* The global epoch counter (paper §2.2, §3).

   A single fetch-and-increment counter.  All schemes that use epochs
   (EBR, HE, POIBR, TagIBR*, 2GEIBR) advance it from [alloc] every
   [epoch_freq] allocations per thread, which bounds the number of
   blocks born in any one epoch — the key ingredient of the
   robustness proof (Theorem 2). *)

type t = { value : int Atomic.t }

(* Start at 1 so that 0 can mean "before any epoch" in tests. *)
let create () = { value = Atomic.make 1 }

let read t = Prim.hot_read t.value

(* Non-charged read for assertions and metrics. *)
let peek t = Atomic.get t.value

let advance t =
  let old = Prim.faa t.value 1 in
  Ibr_obs.Probe.epoch_advance ~epoch:(old + 1)

(* Conditional advance: exactly [expected] -> [expected + 1].  Used by
   QSBR, where an unconditional increment by racing advancers would
   skip a grace period. *)
let advance_cas t ~expected =
  let ok = Prim.cas t.value expected (expected + 1) in
  if ok then Ibr_obs.Probe.epoch_advance ~epoch:(expected + 1);
  ok

(* Has every announcement in [slots] reached epoch [e]?  The scan of
   Fraser's EBR and QSBR before they advance: one charged
   cross-thread read per slot, stopping at the first laggard.  Parked
   slots hold [max_int], which has reached every epoch. *)
let all_reached slots e =
  Array.for_all (fun slot -> Prim.charge_scan (); Atomic.get slot >= e) slots

(* Per-thread allocation-driven advance: thread-local counter, bump
   the global epoch every [freq] calls.  Matches Fig. 2 lines 15–17 /
   Fig. 5 lines 31–33.  The counter is reset on advance so it cannot
   grow without bound over a long run; a non-positive [freq] is a
   configuration error (a silently-never-advancing epoch breaks every
   epoch-based scheme's bound), rejected here and at tracker config
   validation. *)
let tick t ~counter ~freq =
  if freq <= 0 then invalid_arg "Epoch.tick: epoch_freq must be positive";
  incr counter;
  if !counter >= freq then begin
    counter := 0;
    advance t
  end

(* The final epoch value is instance-scoped: a gauge the harness
   publishes at end of run. *)
let gauge = Ibr_obs.Metrics.register_gauge ~name:"epoch" ~order:200
let publish v = gauge := v
