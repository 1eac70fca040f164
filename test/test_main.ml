(* Entry point aggregating every suite; `dune runtest` runs it. *)

let () =
  Alcotest.run "ibr"
    [
      ("rng", Test_rng.suite);
      ("sched", Test_sched.suite);
      ("block-alloc", Test_block_alloc.suite);
      ("epoch-view", Test_epoch_view.suite);
      ("trackers", Test_trackers.suite);
      ("sweep", Test_sweep.suite);
      ("sets", Test_sets.suite);
      ("stack", Test_stack.suite);
      ("rideables", Test_rideables.suite);
      ("safety", Test_safety.suite);
      ("unsound", Test_unsound.suite);
      ("check", Test_check.suite);
      ("linearizability", Test_linearizability.suite);
      ("harness", Test_harness.suite);
      ("domains", Test_domains.suite);
      ("more", Test_more.suite);
      ("handover", Test_handover.suite);
      ("retire-backends", Test_retire_backends.suite);
      ("background", Test_background.suite);
      ("robustness", Test_robustness.suite);
      ("engine", Test_engine.suite);
      ("obs", Test_obs.suite);
      ("service", Test_service.suite);
      ("neutralize", Test_neutralize.suite);
    ]
