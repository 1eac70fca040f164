(** Result record for one benchmark run, plus the sampling helpers
    used to compute the paper's Fig. 9 metric (average
    retired-but-unreclaimed blocks at operation start).

    Identity and figure quantities are record fields; all other
    telemetry is a {!Ibr_obs.Metrics} registry snapshot taken by the
    runner — look values up with {!metric}.  Rows built outside a
    runner use [Ibr_obs.Metrics.zero ()] for the snapshot. *)

type t = {
  tracker : string;
  ds : string;
  threads : int;
  mix : string;
  backend : string;         (** provenance: ["sim"] or ["domains"] *)
  ops : int;
  makespan : int;           (** virtual cycles (sim) or wall-clock
                                microseconds (domains) *)
  throughput : float;       (** ops per million makespan units: ops
                                per million cycles (sim), ops per
                                second (domains) *)
  avg_unreclaimed : float;  (** the Fig. 9 metric *)
  peak_unreclaimed : int;
  samples : int;
  metrics : Ibr_obs.Metrics.snapshot;
}

val metric : t -> string -> int
(** [metric r name] is the registry value for column [name] in this
    row (0 if absent — e.g. a column registered after the row was
    taken). *)

val throughput : ops:int -> makespan:int -> float

val throughput_unit : t -> string
(** The label of [throughput] for this row's backend: ["ops/Mcyc"]
    on the simulator, ["ops/s"] on domains. *)

val pp : Format.formatter -> t -> unit
(** One summary line; throughput is labelled by {!throughput_unit}. *)

val csv_header : unit -> string
(** The identity/figure columns followed by every registered metric
    column, in order.  A function: the column set can grow when
    histogram metrics are enabled. *)

val to_csv_row : t -> string

val csv_header_tagged : unit -> string
val to_csv_row_tagged : t -> string
(** {!csv_header}/{!to_csv_row} with a leading [backend] provenance
    column, for campaigns that mix simulator and hardware rows in one
    table.  The untagged layout is pinned by the golden CSV and stays
    unchanged. *)

(** Incremental mean/peak accumulator. *)
type sampler = {
  mutable sum : float;
  mutable n : int;
  mutable peak : int;
}

val make_sampler : unit -> sampler
val sample : sampler -> int -> unit
val merge_samplers : sampler list -> sampler
val mean : sampler -> float
