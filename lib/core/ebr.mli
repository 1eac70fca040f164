(** Epoch-based reclamation (paper §2.2, Fig. 2): one epoch reservation per thread; fast, not robust.

    Sealed to the common memory-manager signature of Fig. 1; see
    {!Tracker_intf.TRACKER} for the operations. *)

include Tracker_intf.TRACKER

module Noflush : Tracker_intf.TRACKER
(** Intentionally unsound mutation whose [detach] frees its pending
    retirements without the final guarded sweep — the detach-without-
    flush lifecycle bug the [thread_churn] scenario exists to catch.
    Everything else is the sound scheme.  Demonstration oracle only;
    not in {!Registry.all}. *)
