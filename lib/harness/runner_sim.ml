(* The simulator backend: runs one (tracker × rideable × threads ×
   workload) configuration on the discrete-event machine and returns a
   [Stats.t] row.

   The paper's methodology is followed exactly: prefill, then a
   fixed-duration free-for-all where each thread samples its local
   retired-but-unreclaimed count at the start of every operation
   (the Fig. 9 metric) and operation completions are counted for
   throughput (Fig. 8).  Threads beyond the simulated core count queue
   for cores, reproducing the oversubscription (stall) regime to the
   right of the 72-thread mark in the paper's plots.

   Since the engine extraction, this module only owns what is
   genuinely simulator-specific: the scheduler knobs a fault profile
   implies, and building the machine.  The run loop itself — prefill,
   capacity sizing, worker fleet, reclaimer, watchdog, shutdown,
   stats — lives in [Run_engine] and is shared with the domains
   backend; [Run_engine.sim_exec] is constructed so the engine replays
   the pre-extraction runner bit for bit. *)

open Ibr_runtime
open Ibr_ds

type faults = Runner_intf.faults =
  | No_faults
  | Stall_storm of { stall_prob : float; stall_len : int }
  | Crash of { crash_prob : float; max_crashes : int }
  | Crash_capped of {
      crash_prob : float;
      max_crashes : int;
      slack_per_thread : int;
    }
  | Crash_watchdog of {
      crash_prob : float;
      max_crashes : int;
      period : int;
      grace : int;
    }
  | Stall_watchdog of { period : int; grace : int }
  | Stall_neutralize of {
      stall_prob : float;
      stall_len : int;
      period : int;
      grace : int;
    }

let fault_profiles = Runner_intf.fault_profiles
let faults_of_string = Runner_intf.faults_of_string

type config = {
  threads : int;
  horizon : int;               (* virtual run length *)
  sched : Sched.config;
  seed : int;
  tracker_cfg : Ibr_core.Tracker_intf.config;
  spec : Workload.spec;
  faults : faults;
}

let default_config ?(threads = 8) ?(horizon = 200_000) ?(seed = 0xbeef)
    ?(cores = 72) ?(faults = No_faults) ~spec () =
  {
    threads;
    horizon;
    sched = { Sched.default_config with cores; seed };
    seed;
    tracker_cfg = Ibr_core.Tracker_intf.default_config ~threads ();
    spec;
    faults;
  }

(* Scheduler knobs implied by the fault profile. *)
let sched_config cfg =
  match cfg.faults with
  | No_faults -> cfg.sched
  | Stall_storm { stall_prob; stall_len } ->
    { cfg.sched with stall_prob; stall_len }
  | Crash { crash_prob; max_crashes }
  | Crash_capped { crash_prob; max_crashes; _ }
  | Crash_watchdog { crash_prob; max_crashes; _ } ->
    { cfg.sched with crash_prob; max_crashes; stall_prob = 0.0 }
  | Stall_watchdog _ ->
    (* The parked victim is the stall under study; injected stalls on
       the survivors would let the watchdog eject a live thread. *)
    { cfg.sched with stall_prob = 0.0 }
  | Stall_neutralize { stall_prob; stall_len; _ } ->
    (* Unlike the ejecting profiles, stall injection stays ON:
       neutralizing a live (merely stalled) thread is sound — it
       restarts its attempt and recovers — so the watchdog may fire
       into the storm. *)
    { cfg.sched with stall_prob; stall_len }

let engine_config cfg = {
  Run_engine.threads = cfg.threads;
  seed = cfg.seed;
  tracker_cfg = cfg.tracker_cfg;
  spec = cfg.spec;
  faults = cfg.faults;
}

let exec_of_config cfg =
  Run_engine.sim_exec ~sched:(Sched.create (sched_config cfg))
    ~horizon:cfg.horizon

let run ~tracker_name ~ds_name (module S : Ds_intf.RIDEABLE) (cfg : config) =
  Run_engine.run ~exec:(exec_of_config cfg) ~tracker_name ~ds_name
    (module S) (engine_config cfg)

(* Convenience: resolve names through the registries and run. *)
let run_named ~tracker_name ~ds_name cfg =
  Run_engine.run_named ~exec:(exec_of_config cfg) ~tracker_name ~ds_name
    (engine_config cfg)
