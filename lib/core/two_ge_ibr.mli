(** Two-global-epochs IBR (§3.3, Fig. 6): interval reservations whose upper endpoint tracks the global epoch observed while reading.

    Sealed to the common memory-manager signature of Fig. 1; see
    {!Tracker_intf.TRACKER} for the operations. *)

include Tracker_intf.TRACKER

module Unfenced : Tracker_intf.TRACKER
(** The literal Fig. 6 read ordering — a deliberately UNSOUND mutation
    of 2GEIBR that swaps only [read] (the pointer read escapes before
    its reservation is published).  The model checker convicts it;
    demonstration oracle only, not in {!Registry.all}. *)
