(* Dynamic census (attach/detach) and the open-loop service simulation
   (DESIGN.md §10).

   - Census model test: random join/leave interleavings against a
     naive reference census (lowest-free-slot discipline, exclusive
     occupancy, monotone generations).
   - Tracker-level churn semantics, scheme family by scheme family: a
     detached thread's reservation is never consulted by a later
     sweep, slot reuse never aliases the leaver's reservation, and
     QSBR's attach publishes a quiescent epoch (the reused slot would
     otherwise read the "always quiescent" detach sentinel — a
     grace-period skip).
   - Allocator magazine ownership across detach ([Alloc.flush_magazines]).
   - Watchdog census-awareness (inactive slots are not monitored and
     re-arm fresh).
   - The service harness itself: arrival-schedule determinism, Zipf
     skew, bit-identical CSV + SLO verdicts across reruns of one
     profile, and a smoke run per scheme family. *)

open Ibr_core
open Ibr_harness

let cfg ~threads =
  { (Tracker_intf.default_config ~threads ()) with
    reuse = false; epoch_freq = 1; empty_freq = 1_000_000 }

(* ---- census: unit + qcheck model ---------------------------------- *)

let test_census_basics () =
  let c = Registry.Census.create 3 in
  Alcotest.(check int) "capacity" 3 (Registry.Census.capacity c);
  let slot ~make = Registry.Census.try_attach c ~make in
  let s0 = slot ~make:(fun i -> i * 10) in
  let s1 = slot ~make:(fun i -> i * 10) in
  let s2 = slot ~make:(fun i -> i * 10) in
  Alcotest.(check (option (pair int int))) "lowest slot first"
    (Some (0, 0)) s0;
  Alcotest.(check (option (pair int int))) "then next" (Some (1, 10)) s1;
  Alcotest.(check (option (pair int int))) "then last" (Some (2, 20)) s2;
  Alcotest.(check (option (pair int int))) "full census refuses" None
    (slot ~make:(fun i -> i * 10));
  Alcotest.(check int) "all active" 3 (Registry.Census.active_count c);
  Registry.Census.detach c ~tid:1;
  Alcotest.(check bool) "slot 1 free" false
    (Registry.Census.is_active c ~tid:1);
  (* Reuse adopts the persistent payload instead of rebuilding it. *)
  Alcotest.(check (option (pair int int))) "lowest free slot reused"
    (Some (1, 10))
    (slot ~make:(fun _ -> Alcotest.fail "payload must be adopted"));
  Alcotest.(check int) "generation counts occupancies" 2
    (Registry.Census.generation c ~tid:1);
  Alcotest.(check int) "attaches" 4 (Registry.Census.attaches c);
  Alcotest.(check int) "detaches" 1 (Registry.Census.detaches c);
  (match Registry.Census.detach c ~tid:1; Registry.Census.detach c ~tid:1 with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "detach of an inactive slot must raise");
  match Registry.Census.detach c ~tid:7 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "detach out of range must raise"

(* Random interleavings of joins and leaves against a naive reference:
   a bool occupancy array with lowest-free-slot attach.  Checks, after
   every step: occupancy agrees slot by slot, attach grants exactly
   the reference slot (or None exactly when the reference is full),
   generations only grow, and a granted slot was free in the reference
   (no aliasing of a live occupant). *)
type census_op = Join | Leave of int

let census_op_gen cap =
  QCheck.Gen.(
    frequency
      [ (3, return Join); (2, map (fun i -> Leave i) (int_bound (cap - 1))) ])

let census_scenario_gen =
  QCheck.Gen.(
    let* cap = int_range 1 5 in
    let* ops = list_size (int_range 1 40) (census_op_gen cap) in
    return (cap, ops))

let census_scenario_print (cap, ops) =
  Printf.sprintf "cap=%d [%s]" cap
    (String.concat "; "
       (List.map
          (function Join -> "join" | Leave i -> Printf.sprintf "leave %d" i)
          ops))

let prop_census_model =
  QCheck.Test.make ~name:"Census matches the naive lowest-free-slot model"
    ~count:300
    (QCheck.make census_scenario_gen ~print:census_scenario_print)
    (fun (cap, ops) ->
       let c = Registry.Census.create cap in
       let model = Array.make cap false in
       let gens = Array.make cap 0 in
       let model_attach () =
         let rec go i =
           if i >= cap then None
           else if not model.(i) then Some i
           else go (i + 1)
         in
         go 0
       in
       let agree () =
         Array.for_all Fun.id
           (Array.init cap (fun i ->
              model.(i) = Registry.Census.is_active c ~tid:i
              && Registry.Census.generation c ~tid:i >= gens.(i)))
       in
       List.for_all
         (fun op ->
            (match op with
             | Join ->
               let expect = model_attach () in
               let got = Registry.Census.try_attach c ~make:(fun i -> i) in
               (match expect, got with
                | None, None -> true
                | Some i, Some (j, _) when i = j ->
                  model.(i) <- true;
                  let g = Registry.Census.generation c ~tid:i in
                  let ok = g > gens.(i) in
                  gens.(i) <- g;
                  ok
                | _ -> false)
             | Leave i ->
               if model.(i) then begin
                 Registry.Census.detach c ~tid:i;
                 model.(i) <- false;
                 true
               end
               else (
                 match Registry.Census.detach c ~tid:i with
                 | exception Invalid_argument _ -> true
                 | () -> false))
            && agree ())
         ops)

(* ---- detached reservations are never consulted --------------------- *)

(* Epoch-family shape: a reader mid-operation pins a retired block;
   after it ends its op AND detaches, the next sweep must free the
   block — i.e. the departed slot's reservation has stopped counting
   toward grace periods (advance quorum tolerates census changes). *)
let test_detach_unblocks_sweep (module T : Tracker_intf.TRACKER) () =
  let t = T.create ~threads:2 (cfg ~threads:2) in
  let attach_exn () =
    match T.attach t with
    | Some h -> h
    | None -> Alcotest.fail "attach refused on a non-full census"
  in
  (* Sweep repeatedly: epoch schemes need a few helped advances before
     a retired block's grace period can elapse. *)
  let pump h = for _ = 1 to 4 do T.force_empty h done in
  let reader = attach_exn () in
  let writer = attach_exn () in
  T.start_op reader;
  let b = T.alloc writer 1 in
  let p = T.make_ptr t (Some b) in
  let v = T.read_root reader p in
  ignore (View.target v);
  T.write writer p None;
  T.retire writer b;
  pump writer;
  Alcotest.(check bool) "pinned while the reader is mid-interval" false
    (Block.is_reclaimed b);
  T.end_op reader;
  T.detach reader;
  pump writer;
  Alcotest.(check bool) "freed once the reader detached" true
    (Block.is_reclaimed b);
  T.detach writer

(* Slot reuse must not resurrect the leaver's reservation: a joiner
   occupying the departed reader's slot (and not yet inside an
   operation) must not pin anything for the epoch-publishing schemes.
   (QSBR is intentionally different — see the next test.) *)
let test_slot_reuse_no_alias (module T : Tracker_intf.TRACKER) () =
  let t = T.create ~threads:2 (cfg ~threads:2) in
  let attach_exn () =
    match T.attach t with
    | Some h -> h
    | None -> Alcotest.fail "attach refused on a non-full census"
  in
  let pump h = for _ = 1 to 4 do T.force_empty h done in
  let reader = attach_exn () in
  let writer = attach_exn () in
  T.start_op reader;
  let slot = T.handle_tid reader in
  T.end_op reader;
  T.detach reader;
  let joiner = attach_exn () in
  Alcotest.(check int) "joiner reuses the leaver's slot" slot
    (T.handle_tid joiner);
  let b = T.alloc writer 2 in
  let p = T.make_ptr t (Some b) in
  T.write writer p None;
  T.retire writer b;
  pump writer;
  Alcotest.(check bool)
    "an idle joiner on a reused slot pins nothing" true
    (Block.is_reclaimed b);
  (* ...but its own fresh reservation works. *)
  T.start_op joiner;
  let b2 = T.alloc writer 3 in
  let p2 = T.make_ptr t (Some b2) in
  let v = T.read_root joiner p2 in
  ignore (View.target v);
  T.write writer p2 None;
  T.retire writer b2;
  pump writer;
  Alcotest.(check bool) "joiner's own reservation pins" false
    (Block.is_reclaimed b2);
  T.end_op joiner;
  T.detach joiner;
  pump writer;
  T.detach writer

(* QSBR's detach parks the slot at the "always quiescent" sentinel, so
   attach must publish the then-current epoch: a joiner that has not
   quiesced since attaching pins everything retired after that point.
   If attach left the sentinel in place, two helped advances would
   race past the joiner's first operation and free under it (the
   grace-period skip this test would catch as [b] being reclaimed). *)
let test_qsbr_attach_publishes_quiescence () =
  let module T = Qsbr in
  let t = T.create ~threads:2 (cfg ~threads:2) in
  let attach_exn () =
    match T.attach t with
    | Some h -> h
    | None -> Alcotest.fail "attach refused on a non-full census"
  in
  let pump h = for _ = 1 to 4 do T.force_empty h done in
  let first = attach_exn () in
  T.detach first;                       (* slot 0 parked at the sentinel *)
  let joiner = attach_exn () in
  Alcotest.(check int) "sentinel slot reused" 0 (T.handle_tid joiner);
  let writer = attach_exn () in
  let b = T.alloc writer 4 in
  let p = T.make_ptr t (Some b) in
  T.write writer p None;
  T.retire writer b;
  pump writer;
  Alcotest.(check bool)
    "joiner pins from attach until its first quiescence" false
    (Block.is_reclaimed b);
  (* A few op cycles: each announces the joiner's quiescence at the
     then-current epoch while the writer's sweeps help the epoch
     forward, so the grace period elapses. *)
  for _ = 1 to 4 do
    T.start_op joiner;
    T.end_op joiner;
    T.force_empty writer
  done;
  Alcotest.(check bool) "freed after the joiner quiesced" true
    (Block.is_reclaimed b);
  T.detach joiner;
  T.detach writer

(* The detach path must hand the leaver's pending retirements to the
   slot's persistent path (not leak them): a joiner that reuses the
   slot adopts them and its own sweep frees them. *)
let test_detach_hands_over_retirements () =
  let module T = Ebr in
  let t = T.create ~threads:2 (cfg ~threads:2) in
  let attach_exn () =
    match T.attach t with
    | Some h -> h
    | None -> Alcotest.fail "attach refused on a non-full census"
  in
  let pump h = for _ = 1 to 4 do T.force_empty h done in
  let reader = attach_exn () in
  let leaver = attach_exn () in
  T.start_op reader;
  let b = T.alloc leaver 5 in
  let p = T.make_ptr t (Some b) in
  let v = T.read_root reader p in
  ignore (View.target v);
  T.write leaver p None;
  T.retire leaver b;
  let slot = T.handle_tid leaver in
  T.detach leaver;                 (* reader still pins b: stays pending *)
  Alcotest.(check bool) "still pinned across the detach" false
    (Block.is_reclaimed b);
  T.end_op reader;
  let joiner = attach_exn () in
  Alcotest.(check int) "adopted the leaver's slot" slot
    (T.handle_tid joiner);
  pump joiner;
  Alcotest.(check bool) "joiner's sweep frees the inherited block" true
    (Block.is_reclaimed b);
  T.detach joiner;
  T.detach reader

(* ---- allocator: magazine ownership across detach ------------------- *)

let test_flush_magazines () =
  let a = Alloc.create ~threads:2 ~magazine_size:8 () in
  let blocks = List.init 6 (fun i -> Alloc.alloc a ~tid:0 i) in
  List.iter
    (fun b ->
       Block.transition_retire b;
       Alloc.free a ~tid:0 b)
    blocks;
  let st = Alloc.stats a in
  Alcotest.(check int) "six blocks cached" 6 st.cached;
  (* Partial magazines are invisible to other threads... *)
  let b1 = Alloc.alloc a ~tid:1 100 in
  Alcotest.(check int) "tid 1 cannot see tid 0's magazines"
    (st.fresh + 1) (Alloc.stats a).fresh;
  (* ...until the owner flushes them to the depot. *)
  Alloc.flush_magazines a ~tid:0;
  Alcotest.(check int) "flush moves blocks, not counts" 6
    (Alloc.stats a).cached;
  let b2 = Alloc.alloc a ~tid:1 101 in
  let st2 = Alloc.stats a in
  Alcotest.(check int) "no fresh block needed" (st.fresh + 1) st2.fresh;
  Alcotest.(check bool) "reuse happened" true (st2.reused > st.reused);
  Alcotest.(check int) "live accounting consistent"
    (st2.allocated - st2.freed) st2.live;
  (* Idempotent / empty flush is a no-op. *)
  Alloc.flush_magazines a ~tid:0;
  Alloc.flush_magazines a ~tid:0;
  Alcotest.(check int) "cached unchanged by empty flushes"
    st2.cached (Alloc.stats a).cached;
  ignore b1;
  ignore b2

(* ---- watchdog: inactive slots are not monitored -------------------- *)

let watchdog_run ~active ~horizon body =
  let open Ibr_runtime in
  let sched = Sched.create (Sched.test_config ~cores:2 ()) in
  let progress = ref 1 in   (* armed, then permanently stalled *)
  let w =
    Watchdog.spawn ~sched ~period:10 ~grace:2 ~threads:1
      ~active:(fun _ -> active ())
      ~progress:(fun _ -> !progress)
      ~footprint:(fun () -> 0)
      ~eject:(fun _ -> ())
      ()
  in
  ignore (Sched.spawn sched (fun _ -> body ()));
  Sched.run ~horizon sched;
  w

let test_watchdog_ejects_active_staller () =
  let open Ibr_runtime in
  let w =
    watchdog_run ~active:(fun () -> true) ~horizon:200 (fun () ->
      Hooks.step 200)
  in
  Alcotest.(check int) "stalled active slot ejected" 1
    (Watchdog.ejections w)

let test_watchdog_ignores_inactive_slot () =
  let open Ibr_runtime in
  let w =
    watchdog_run ~active:(fun () -> false) ~horizon:200 (fun () ->
      Hooks.step 200)
  in
  Alcotest.(check int) "inactive slot never ejected" 0
    (Watchdog.ejections w)

let test_watchdog_rearms_on_detach () =
  let open Ibr_runtime in
  let active = ref true in
  let w =
    watchdog_run ~active:(fun () -> !active) ~horizon:400 (fun () ->
      (* Stall long enough to be ejected, then "detach". *)
      Hooks.step 100;
      active := false;
      Hooks.step 300)
  in
  Alcotest.(check int) "ejected while active" 1 (Watchdog.ejections w);
  Alcotest.(check bool) "ejection state reset once the slot freed" false
    (Watchdog.ejected w 0)

(* ---- service: arrivals, zipf, determinism, smoke ------------------- *)

let small_profile ?arrival ?watchdog () =
  Service.default_profile ~workers:3 ~fleet:5 ~cores:4 ~horizon:60_000
    ~seed:0x5e11 ?arrival ?watchdog ~session_ops:12 ~away:800
    ~spec:(Workload.spec_for "hashmap") ()

let test_arrivals_deterministic () =
  let p = small_profile () in
  let a1, capped1 = Service.gen_arrivals p in
  let a2, _ = Service.gen_arrivals p in
  Alcotest.(check bool) "same schedule twice" true (a1 = a2);
  Alcotest.(check bool) "not truncated" false capped1;
  Alcotest.(check bool) "non-empty" true (Array.length a1 > 0);
  let sorted = ref true in
  Array.iteri
    (fun i t -> if i > 0 && t < a1.(i - 1) then sorted := false)
    a1;
  Alcotest.(check bool) "timestamps non-decreasing" true !sorted;
  Array.iter
    (fun t ->
       if t < 0 || t >= p.Service.horizon then
         Alcotest.failf "arrival %d outside horizon" t)
    a1;
  (* A different seed moves the schedule. *)
  let a3, _ = Service.gen_arrivals { p with Service.seed = 1 } in
  Alcotest.(check bool) "seed changes the schedule" false (a1 = a3)

let test_rate_modulation () =
  let p = small_profile () in
  let flat = { p with Service.diurnal = false; spikes = 0 } in
  for t = 0 to flat.Service.horizon do
    if Service.rate_permille flat ~t <> 1000 then
      Alcotest.failf "flat profile must be 1000 permille at %d" t
  done;
  let lo = ref max_int and hi = ref 0 in
  for t = 0 to p.Service.horizon do
    let r = Service.rate_permille p ~t in
    lo := min !lo r;
    hi := max !hi r
  done;
  Alcotest.(check int) "diurnal trough" 600 !lo;
  Alcotest.(check bool) "spike peak above plain diurnal" true (!hi > 1500);
  Alcotest.(check bool) "spike peak bounded by 3x peak rate" true
    (!hi <= 4500);
  (* Bursty processes add arrivals at unchanged timestamps. *)
  let pb =
    { p with Service.arrival = Service.Bursty { burst = 4; prob = 0.1 } }
  in
  let plain, _ = Service.gen_arrivals p in
  let bursty, capped = Service.gen_arrivals pb in
  Alcotest.(check bool) "bursts add arrivals" true
    (Array.length bursty > Array.length plain || capped)

let test_zipf_skew () =
  let rng = Ibr_runtime.Rng.create 99 in
  let z = Workload.zipf ~theta:1.1 ~key_range:64 in
  let counts = Array.make 64 0 in
  for _ = 1 to 4_000 do
    let k = Workload.zipf_pick z rng in
    if k < 0 || k >= 64 then Alcotest.failf "zipf key %d out of range" k;
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "hot key dominates the uniform share" true
    (counts.(0) > 3 * (4_000 / 64));
  Alcotest.(check bool) "hot key beats the coldest" true
    (counts.(0) > 10 * (counts.(63) + 1));
  (* theta = 0 degenerates to uniform: the head cannot dominate. *)
  let u = Workload.zipf ~theta:0.0 ~key_range:64 in
  let uc = Array.make 64 0 in
  for _ = 1 to 4_000 do
    let k = Workload.zipf_pick u rng in
    uc.(k) <- uc.(k) + 1
  done;
  Alcotest.(check bool) "uniform head is unexceptional" true
    (uc.(0) < 3 * (4_000 / 64))

let test_service_deterministic () =
  let p = small_profile () in
  let r1 = Service.run_named ~tracker_name:"TagIBR" ~ds_name:"hashmap" p in
  let r2 = Service.run_named ~tracker_name:"TagIBR" ~ds_name:"hashmap" p in
  match r1, r2 with
  | Some r1, Some r2 ->
    Alcotest.(check string) "bit-identical CSV rows"
      (Service.to_csv_row r1) (Service.to_csv_row r2);
    Alcotest.(check string) "identical SLO verdicts"
      (Service.verdicts_csv r1) (Service.verdicts_csv r2)
  | _ -> Alcotest.fail "service run refused a compatible pairing"

let smoke_schemes =
  (* One representative per scheme family. *)
  [ "EBR"; "QSBR"; "HP"; "HE"; "TagIBR"; "2GEIBR"; "NoMM" ]

let test_service_smoke tracker () =
  match
    Service.run_named ~tracker_name:tracker ~ds_name:"hashmap"
      (small_profile ())
  with
  | None -> Alcotest.failf "%s should run the hashmap" tracker
  | Some r ->
    Alcotest.(check int) "every arrival accounted for" r.Service.arrivals
      (r.Service.completed + r.Service.aborted + r.Service.unserved);
    Alcotest.(check bool) "served most of the demand" true
      (r.Service.completed > r.Service.arrivals / 2);
    Alcotest.(check bool) "churn happened" true (r.Service.attaches > 2);
    Alcotest.(check bool) "leavers detached" true
      (r.Service.detaches > 0 && r.Service.detaches <= r.Service.attaches);
    Alcotest.(check bool) "tails are ordered" true
      (r.Service.p50 <= r.Service.p99
       && r.Service.p99 <= r.Service.p999
       && r.Service.p999 <= r.Service.max_latency);
    Alcotest.(check int) "four SLO verdicts" 4
      (List.length r.Service.verdicts);
    Alcotest.(check bool) "default SLO holds" true r.Service.slo_pass

let test_service_bursty_watchdog () =
  let p =
    small_profile
      ~arrival:(Service.Bursty { burst = 6; prob = 0.05 })
      ~watchdog:(15_000, 3) ()
  in
  match Service.run_named ~tracker_name:"EBR" ~ds_name:"hashmap" p with
  | None -> Alcotest.fail "EBR should run the hashmap"
  | Some r ->
    Alcotest.(check bool) "bursty demand served" true
      (r.Service.completed > 0);
    (* No stalls are injected, so churn alone must never look like
       death to the census-aware watchdog. *)
    Alcotest.(check int) "no spurious ejections under churn" 0
      r.Service.ejections

let suite =
  [
    Alcotest.test_case "census basics" `Quick test_census_basics;
    QCheck_alcotest.to_alcotest prop_census_model;
  ]
  (* Every scheme built on the tracker chassis.  QSBR keeps its own
     attach test below (an idle joiner pins by design); NoMM never
     sweeps. *)
  @ List.concat_map
      (fun (e : Registry.entry) ->
         let module T = (val e.tracker) in
         [
           Alcotest.test_case
             (Printf.sprintf "detach unblocks sweeps (%s)" e.name)
             `Quick
             (test_detach_unblocks_sweep (module T));
           Alcotest.test_case
             (Printf.sprintf "slot reuse aliases nothing (%s)" e.name)
             `Quick
             (test_slot_reuse_no_alias (module T));
         ])
      (List.filter
         (fun (e : Registry.entry) ->
            e.name <> Registry.qsbr.name && e.name <> Registry.no_mm.name)
         Registry.all)
  @ [
      Alcotest.test_case "QSBR attach publishes quiescence" `Quick
        test_qsbr_attach_publishes_quiescence;
      Alcotest.test_case "detach hands retirements to the slot path"
        `Quick test_detach_hands_over_retirements;
      Alcotest.test_case "flush_magazines" `Quick test_flush_magazines;
      Alcotest.test_case "watchdog ejects an active staller" `Quick
        test_watchdog_ejects_active_staller;
      Alcotest.test_case "watchdog ignores inactive slots" `Quick
        test_watchdog_ignores_inactive_slot;
      Alcotest.test_case "watchdog re-arms on detach" `Quick
        test_watchdog_rearms_on_detach;
      Alcotest.test_case "arrival schedule deterministic" `Quick
        test_arrivals_deterministic;
      Alcotest.test_case "rate modulation" `Quick test_rate_modulation;
      Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
      Alcotest.test_case "service run is bit-reproducible" `Quick
        test_service_deterministic;
    ]
  @ List.map
      (fun tracker ->
         Alcotest.test_case
           (Printf.sprintf "service smoke (%s)" tracker)
           `Quick (test_service_smoke tracker))
      smoke_schemes
  @ [
      Alcotest.test_case "bursty arrivals + census-aware watchdog" `Quick
        test_service_bursty_watchdog;
    ]
