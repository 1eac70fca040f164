(* Result record for one benchmark run — the row the artifact's CSV
   output carried.

   The identity and figure fields (who ran, and the two quantities the
   paper's plots are made of) are ordinary record fields; everything
   else — allocator, epoch, fault, sweep, crash, pressure telemetry —
   is a snapshot of the [Ibr_obs.Metrics] registry, taken by the
   runner.  Adding a metric means registering it where it is measured;
   this record, the CSV header, and the writers follow automatically. *)

type t = {
  tracker : string;
  ds : string;
  threads : int;
  mix : string;
  backend : string;            (* provenance: "sim" | "domains" *)
  ops : int;
  makespan : int;              (* virtual cycles (sim) or wall us (domains) *)
  throughput : float;          (* ops per million makespan units *)
  avg_unreclaimed : float;     (* paper Fig. 9 metric *)
  peak_unreclaimed : int;
  samples : int;
  metrics : Ibr_obs.Metrics.snapshot;
}

let metric r name = Ibr_obs.Metrics.get r.metrics name

let throughput ~ops ~makespan =
  if makespan <= 0 then 0.0
  else float_of_int ops /. (float_of_int makespan /. 1_000_000.0)

(* The unit of [throughput]: ops per million virtual cycles on the
   simulator, ops per second on domains (makespan in microseconds). *)
let throughput_unit r = if r.backend = "sim" then "ops/Mcyc" else "ops/s"

let pp ppf r =
  let m = metric r in
  Fmt.pf ppf
    "%-12s %-8s t=%-3d %-15s ops=%-8d thr=%8.3f %s unrec=%8.1f \
     peak=%-6d live=%-7d epoch=%-6d faults=%d sweeps=%d swept=%d%s"
    r.tracker r.ds r.threads r.mix r.ops r.throughput (throughput_unit r)
    r.avg_unreclaimed
    r.peak_unreclaimed (m "live") (m "epoch") (m "faults") (m "sweeps")
    (m "sweep_examined")
    ((if m "crashes" = 0 && m "ejections" = 0 && m "oom_events" = 0 then ""
      else
        Printf.sprintf " crashes=%d ejections=%d oom=%d" (m "crashes")
          (m "ejections") (m "oom_events"))
     ^ if r.backend = "sim" then "" else Printf.sprintf " [%s]" r.backend)

(* The run-identity and figure columns; the rest of the header is the
   registry's column list, in registration-order-key order. *)
let identity_header =
  "tracker,ds,threads,mix,ops,makespan,throughput,avg_unreclaimed,\
   peak_unreclaimed,samples"

let csv_header () =
  String.concat "," (identity_header :: Ibr_obs.Metrics.columns ())

let to_csv_row r =
  let prefix =
    Printf.sprintf "%s,%s,%d,%s,%d,%d,%.6f,%.3f,%d,%d" r.tracker r.ds
      r.threads r.mix r.ops r.makespan r.throughput r.avg_unreclaimed
      r.peak_unreclaimed r.samples
  in
  String.concat ","
    (prefix :: List.map (fun (_, v) -> string_of_int v) r.metrics)

(* Backend-tagged variants for campaigns that mix sim and hardware
   rows in one table.  The untagged layout above is pinned by the
   golden CSV, so provenance rides as a leading column in a distinct
   schema instead of mutating the shared one. *)
let csv_header_tagged () = "backend," ^ csv_header ()
let to_csv_row_tagged r = r.backend ^ "," ^ to_csv_row r

(* Incremental mean/peak accumulator for the unreclaimed metric. *)
type sampler = {
  mutable sum : float;
  mutable n : int;
  mutable peak : int;
}

let make_sampler () = { sum = 0.0; n = 0; peak = 0 }

let sample s v =
  s.sum <- s.sum +. float_of_int v;
  s.n <- s.n + 1;
  if v > s.peak then s.peak <- v

let merge_samplers ss =
  let m = make_sampler () in
  List.iter (fun s ->
    m.sum <- m.sum +. s.sum;
    m.n <- m.n + s.n;
    if s.peak > m.peak then m.peak <- s.peak)
    ss;
  m

let mean s = if s.n = 0 then 0.0 else s.sum /. float_of_int s.n
