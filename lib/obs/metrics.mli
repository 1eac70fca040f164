(* Registry of named metrics.  Subsystems register once (at module
   init for counters/gauges, lazily for histograms); the harness
   snapshots the registry per run and the CSV writer derives its
   header from it.  Column order is the explicit [order] key —
   stable regardless of link order. *)

type hist

(* A counter is read-backed (monotone global); runs report the delta
   across [begin_run]..[collect]. *)
val register_counter : name:string -> order:int -> (unit -> int) -> unit

(* A gauge is published by its owner at end of run; [begin_run] zeroes
   it.  Returns the cell to publish into.  Registering the same name
   twice returns the same cell. *)
val register_gauge : name:string -> order:int -> int ref

(* A histogram snapshots to [name_p50;name_p90;name_p99;name_max]
   columns; cleared by [begin_run].  Register only when the columns
   are wanted — the default column set is golden-file pinned. *)
val register_histogram : name:string -> order:int -> hist
val observe : hist -> int -> unit

(* (n, p50, p90, p99, max) of the current observations. *)
val summary : hist -> int * int * int * int * int

(* [percentile sorted n p]: the value at rank [n * p] of the first [n]
   entries of an ascending array (0 when [n = 0]); the index formula
   behind every percentile column. *)
val percentile : int array -> int -> float -> int

(* Header columns, in order. *)
val columns : unit -> string list

type snapshot = (string * int) list
type baseline

(* Zero gauges and histograms; baseline the counters. *)
val begin_run : unit -> baseline

(* One value per column: counters diffed against the baseline, gauges
   as published, histograms as percentiles. *)
val collect : baseline -> snapshot

(* Every column at zero — rows built outside a runner. *)
val zero : unit -> snapshot

(* Lookup with 0 default for unknown columns. *)
val get : snapshot -> string -> int
