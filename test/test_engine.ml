(* The capability-based runner engine (DESIGN.md §11): one surface for
   both execution backends.  The sim declares every capability and
   stays bit-for-bit deterministic (the golden CSV pins the full row;
   here we pin the new profile and the provenance tag); domains runs
   the declared subset and fails fast with [Unsupported] on the rest —
   never a silent no-op. *)

open Ibr_harness

let small_spec = { (Workload.spec_for "hashmap") with key_range = 256 }

(* An exec that can never run anything: only the capability gate is
   exercised, so no closure should ever be reached. *)
let dummy_exec caps =
  {
    Runner_intf.backend = "dummy";
    caps;
    spawn = (fun _ -> assert false);
    spawn_aux = (fun _ -> assert false);
    launch = (fun () -> assert false);
    now = (fun () -> 0);
    wait = (fun _ -> ());
    worker_running = (fun () -> false);
    aux_running = (fun () -> false);
    worker_tick = (fun ~tid:_ -> false);
    neutralize = (fun ~eject:_ ~tid:_ -> assert false);
    makespan = (fun () -> 0);
    publish_crashes = (fun () -> ());
  }

(* ---- the capability matrix, profile by profile ---- *)

let test_capability_matrix () =
  List.iter
    (fun (name, f) ->
       Alcotest.(check (list string))
         (name ^ " runnable on sim") []
         (Runner_intf.missing Run_engine.sim_caps f);
       let expected_on_domains =
         List.filter
           (fun c -> not (Runner_intf.has Run_engine.domains_caps c))
           (Runner_intf.required_caps f)
       in
       Alcotest.(check (list string))
         (name ^ " on domains") expected_on_domains
         (Runner_intf.missing Run_engine.domains_caps f))
    Runner_intf.fault_profiles;
  (* The crash family is exactly what domains cannot honor. *)
  List.iter
    (fun name ->
       let f = Option.get (Runner_intf.faults_of_string name) in
       Alcotest.(check bool)
         (name ^ " blocked on domains") true
         (List.mem "crash_faults"
            (Runner_intf.missing Run_engine.domains_caps f)))
    [ "crash"; "crash+capped"; "crash+watchdog" ];
  List.iter
    (fun name ->
       let f = Option.get (Runner_intf.faults_of_string name) in
       Alcotest.(check (list string))
         (name ^ " honored on domains") []
         (Runner_intf.missing Run_engine.domains_caps f))
    [ "none"; "stall-storm"; "stall+watchdog"; "stall+neutralize" ]

(* Random capability records: [missing] must be exactly the required
   set minus what the record holds, and [require] must raise
   [Unsupported] naming the first missing capability. *)
let gen_caps =
  QCheck.Gen.map
    (fun bits ->
       {
         Runner_intf.deterministic = bits land 1 <> 0;
         crash_faults = bits land 2 <> 0;
         stall_faults = bits land 4 <> 0;
         virtual_time = bits land 8 <> 0;
         watchdog = bits land 16 <> 0;
         neutralize = bits land 128 <> 0;
         alloc_capacity = bits land 32 <> 0;
         service = bits land 64 <> 0;
       })
    (QCheck.Gen.int_bound 255)

let qcheck_missing_consistent =
  QCheck.Test.make ~name:"missing = required \\ held; require raises first"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair gen_caps
           (int_bound (List.length Runner_intf.fault_profiles - 1))))
    (fun (caps, i) ->
       let _, f = List.nth Runner_intf.fault_profiles i in
       let miss = Runner_intf.missing caps f in
       let req = Runner_intf.required_caps f in
       let subset_ok =
         List.for_all
           (fun c -> List.mem c req && not (Runner_intf.has caps c))
           miss
         && List.for_all
              (fun c -> Runner_intf.has caps c || List.mem c miss)
              req
       in
       let require_ok =
         match Runner_intf.require (dummy_exec caps) f with
         | () -> miss = []
         | exception Runner_intf.Unsupported { backend; capability } ->
           backend = "dummy" && (match miss with
             | first :: _ -> first = capability
             | [] -> false)
       in
       subset_ok && require_ok)

(* ---- sim: the new profile is deterministic and actually ejects ---- *)

let test_sim_stall_watchdog_deterministic () =
  let go () =
    let faults = Option.get (Runner_intf.faults_of_string "stall+watchdog") in
    let cfg =
      (* Ejection needs grace+1 watchdog checks = 60k cycles; leave a
         period of slack past that. *)
      Runner_sim.default_config ~threads:4 ~cores:4 ~horizon:90_000
        ~seed:0xb6 ~faults ~spec:small_spec ()
    in
    Option.get (Runner_sim.run_named ~tracker_name:"EBR" ~ds_name:"hashmap" cfg)
  in
  let a = go () and b = go () in
  Alcotest.(check string) "bit-identical CSV row" (Stats.to_csv_row a)
    (Stats.to_csv_row b);
  Alcotest.(check string) "provenance tag" "sim" a.Stats.backend;
  Alcotest.(check bool) "parked worker ejected" true
    (Stats.metric a "ejections" >= 1);
  Alcotest.(check int) "no crash was injected" 0 (Stats.metric a "crashes")

let test_tagged_csv_shape () =
  let cfg =
    Runner_sim.default_config ~threads:2 ~cores:2 ~horizon:10_000
      ~spec:small_spec ()
  in
  let r =
    Option.get (Runner_sim.run_named ~tracker_name:"EBR" ~ds_name:"hashmap" cfg)
  in
  Alcotest.(check string) "tagged header = backend, + header"
    ("backend," ^ Stats.csv_header ())
    (Stats.csv_header_tagged ());
  Alcotest.(check string) "tagged row = backend, + row"
    (r.Stats.backend ^ "," ^ Stats.to_csv_row r)
    (Stats.to_csv_row_tagged r);
  (* The untagged layout is pinned by the golden CSV; here just the
     width invariant the tagged variant must keep. *)
  Alcotest.(check int) "tagged width = untagged + 1"
    (List.length (String.split_on_char ',' (Stats.csv_header ())) + 1)
    (List.length (String.split_on_char ',' (Stats.csv_header_tagged ())))

(* ---- domains: honored subset runs, the rest fails fast ---- *)

let test_domains_runs_fault_free () =
  let cfg =
    Runner_domains.default_config ~threads:2 ~duration_s:0.1
      ~spec:small_spec ()
  in
  let r =
    Option.get
      (Runner_domains.run_named ~tracker_name:"2GEIBR" ~ds_name:"hashmap" cfg)
  in
  Alcotest.(check string) "provenance tag" "domains" r.Stats.backend;
  Alcotest.(check bool) "did ops" true (r.Stats.ops > 0);
  Alcotest.(check bool) "wall-clock makespan in us" true (r.Stats.makespan > 0)

let test_domains_stall_watchdog_ejects () =
  let faults = Option.get (Runner_intf.faults_of_string "stall+watchdog") in
  (* period*grace = 45 ms of wall clock; 0.2 s leaves room to eject. *)
  let cfg =
    Runner_domains.default_config ~threads:3 ~duration_s:0.2 ~faults
      ~spec:small_spec ()
  in
  let r =
    Option.get
      (Runner_domains.run_named ~tracker_name:"EBR" ~ds_name:"hashmap" cfg)
  in
  Alcotest.(check bool) "wall-clock watchdog ejected the parked worker" true
    (Stats.metric r "ejections" >= 1);
  Alcotest.(check bool) "survivors made progress" true (r.Stats.ops > 0)

let test_domains_crash_unsupported () =
  List.iter
    (fun name ->
       let faults = Option.get (Runner_intf.faults_of_string name) in
       let cfg =
         Runner_domains.default_config ~threads:2 ~duration_s:0.05 ~faults
           ~spec:small_spec ()
       in
       Alcotest.check_raises (name ^ " refused on domains")
         (Runner_intf.Unsupported
            { backend = "domains"; capability = "crash_faults" })
         (fun () ->
            ignore
              (Runner_domains.run_named ~tracker_name:"EBR"
                 ~ds_name:"hashmap" cfg)))
    [ "crash"; "crash+capped"; "crash+watchdog" ]

(* The gate fires before any work: a backend without the service
   capability cannot even begin an open-loop run. *)
let test_service_requires_capability () =
  let exec =
    dummy_exec { Run_engine.domains_caps with Runner_intf.service = false }
  in
  let profile =
    Service.default_profile ~workers:2 ~fleet:2 ~cores:2 ~horizon:2_000
      ~spec:small_spec ()
  in
  Alcotest.check_raises "service capability required"
    (Runner_intf.Unsupported { backend = "dummy"; capability = "service" })
    (fun () ->
       ignore
         (Service.run_named_exec ~exec ~tracker_name:"EBR" ~ds_name:"hashmap"
            profile))

let suite =
  [
    Alcotest.test_case "capability matrix (profiles x backends)" `Quick
      test_capability_matrix;
    QCheck_alcotest.to_alcotest qcheck_missing_consistent;
    Alcotest.test_case "sim stall+watchdog: deterministic, ejects" `Quick
      test_sim_stall_watchdog_deterministic;
    Alcotest.test_case "tagged CSV wraps the untagged layout" `Quick
      test_tagged_csv_shape;
    Alcotest.test_case "domains runs fault-free" `Slow
      test_domains_runs_fault_free;
    Alcotest.test_case "domains stall+watchdog ejects on wall clock" `Slow
      test_domains_stall_watchdog_ejects;
    Alcotest.test_case "crash profiles raise Unsupported on domains" `Quick
      test_domains_crash_unsupported;
    Alcotest.test_case "service needs the service capability" `Quick
      test_service_requires_capability;
  ]
