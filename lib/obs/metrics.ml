(* The metric registry: the single place a subsystem declares what it
   measures.  [Stats] snapshots the registry and [Csv_out] derives its
   header from it, so adding a metric touches exactly one file — the
   one that owns the number.

   Three kinds, matching the three lifetimes telemetry actually has
   here:

   - [Counter]: backed by a read function over a monotone global
     (e.g. [Fault.total], the [Sweep_stats] atomics).  A run reports
     the *delta* across its measured phase, so counters are read once
     at [begin_run] and diffed at [collect].

   - [Gauge]: an instance-scoped value with no global to read
     (allocator stats, the final epoch, a scheduler's crash count).
     The owner *publishes* it at end of run; [begin_run] zeroes every
     gauge so a run that never publishes (e.g. the domains backend has
     no watchdog) reports 0 rather than the previous run's value.

   - [Histogram]: a distribution observed during the run (retire-to-
     reclaim age).  Snapshots to four columns (p50/p90/p99/max) and is
     cleared by [begin_run].  Histograms are registered lazily — only
     when tracing asks for them (--hist) — so their columns are
     opt-in.

   Counters and gauges register at module init, never on first use:
   the default CSV column set is then fixed at start-up, whatever ran
   earlier in the process (the golden-file test pins it).

   Column order is an explicit [order] key, not registration order:
   module initialisation order is a linker artifact we refuse to
   depend on. *)

type hist = {
  mutable obs : int array;     (* growable scratch, unsorted *)
  mutable n : int;
}

type kind =
  | Counter of (unit -> int)
  | Gauge of int ref
  | Histogram of hist

type metric = { name : string; order : int; kind : kind }

let registry : metric list ref = ref []

let find name = List.find_opt (fun m -> m.name = name) !registry

let add m =
  (* Idempotent by name: registration happens at module init, which
     runs once, but lazy registrations (histograms) may be re-enabled. *)
  match find m.name with
  | Some existing -> existing
  | None ->
    registry := m :: !registry;
    m

let register_counter ~name ~order read =
  ignore (add { name; order; kind = Counter read })

let register_gauge ~name ~order =
  match add { name; order; kind = Gauge (ref 0) } with
  | { kind = Gauge cell; _ } -> cell
  | _ -> invalid_arg ("metric " ^ name ^ " already registered with another kind")

let register_histogram ~name ~order =
  match add { name; order; kind = Histogram { obs = Array.make 64 0; n = 0 } }
  with
  | { kind = Histogram h; _ } -> h
  | _ -> invalid_arg ("metric " ^ name ^ " already registered with another kind")

let observe h v =
  if h.n = Array.length h.obs then begin
    let bigger = Array.make (2 * h.n) 0 in
    Array.blit h.obs 0 bigger 0 h.n;
    h.obs <- bigger
  end;
  h.obs.(h.n) <- v;
  h.n <- h.n + 1

let ordered () =
  List.sort (fun a b -> compare (a.order, a.name) (b.order, b.name)) !registry

(* Histograms expand to four columns; everything else to one. *)
let columns_of m =
  match m.kind with
  | Counter _ | Gauge _ -> [ m.name ]
  | Histogram _ ->
    [ m.name ^ "_p50"; m.name ^ "_p90"; m.name ^ "_p99"; m.name ^ "_max" ]

let columns () = List.concat_map columns_of (ordered ())

let percentile sorted n p =
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (float_of_int n *. p)))

let values_of m =
  match m.kind with
  | Counter read -> [ read () ]
  | Gauge cell -> [ !cell ]
  | Histogram h ->
    let sorted = Array.sub h.obs 0 h.n in
    Array.sort compare sorted;
    [ percentile sorted h.n 0.50; percentile sorted h.n 0.90;
      percentile sorted h.n 0.99; (if h.n = 0 then 0 else sorted.(h.n - 1)) ]

(* (n, p50, p90, p99, max) of a histogram's current observations. *)
let summary h =
  let sorted = Array.sub h.obs 0 h.n in
  Array.sort compare sorted;
  ( h.n,
    percentile sorted h.n 0.50,
    percentile sorted h.n 0.90,
    percentile sorted h.n 0.99,
    if h.n = 0 then 0 else sorted.(h.n - 1) )

(* A run snapshot: every registered column, in order, as an int. *)
type snapshot = (string * int) list

(* Opaque counter baseline taken at [begin_run]. *)
type baseline = (string * int) list

let begin_run () : baseline =
  List.iter
    (fun m ->
       match m.kind with
       | Counter _ -> ()
       | Gauge cell -> cell := 0
       | Histogram h -> h.n <- 0)
    !registry;
  List.filter_map
    (fun m ->
       match m.kind with
       | Counter read -> Some (m.name, read ())
       | Gauge _ | Histogram _ -> None)
    !registry

let collect (before : baseline) : snapshot =
  List.concat_map
    (fun m ->
       let base =
         match List.assoc_opt m.name before with Some v -> v | None -> 0
       in
       let vs =
         match m.kind with
         | Counter _ -> List.map (fun v -> v - base) (values_of m)
         | Gauge _ | Histogram _ -> values_of m
       in
       List.combine (columns_of m) vs)
    (ordered ())

(* All registered columns at zero: the row shape for results built
   outside a runner (replaces the old hand-maintained [Stats.no_sweep]). *)
let zero () : snapshot = List.map (fun c -> (c, 0)) (columns ())

let get snapshot name =
  match List.assoc_opt name snapshot with Some v -> v | None -> 0
