(** The global epoch counter (paper §2.2, §3).

    All epoch-based schemes advance it from [alloc] every
    [epoch_freq] allocations per thread, which bounds the number of
    blocks born in any one epoch — the key ingredient of the
    robustness theorem (Thm. 2). *)

type t

val create : unit -> t
(** Starts at 1 (0 means "before any epoch" in tests). *)

val read : t -> int
(** Cost-charged read (hot-read class). *)

val peek : t -> int
(** Uncharged read for assertions and metrics. *)

val advance : t -> unit
(** Atomic increment (fetch-and-add). *)

val advance_cas : t -> expected:int -> bool
(** Advance exactly [expected] to [expected + 1]; fails if the epoch
    moved.  (QSBR's grace periods need the conditional form: racing
    unconditional increments would skip one.) *)

val all_reached : int Atomic.t array -> int -> bool
(** Has every announced epoch in the table reached [e]?  Charges one
    cross-thread scan per slot read; parked ([max_int]) slots pass. *)

val tick : t -> counter:int ref -> freq:int -> unit
(** Allocation-driven advance: bump [counter]; advance the epoch and
    reset the counter every [freq] calls.  Raises [Invalid_argument]
    if [freq <= 0] — a never-advancing epoch is a config error, not a
    mode. *)

val publish : int -> unit
(** Publish a run's final epoch value to the ["epoch"] metric gauge. *)
