(* Shared pieces of the benchmark: clocks, order statistics, the
   metric list a run reports, and the in-memory span recorder used by
   traced runs. *)

let now_ns = Ibr_runtime.Monotonic.now_ns

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Time [f] once; returns (result, elapsed ns). *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* -- order statistics -- *)

(* Linear-interpolated quantile of an already sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else if n = 1 then a.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let i = min i (n - 2) in
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = quantile_sorted (sorted_floats l) 0.5

(* Median with its interquartile range, for the human-readable lines. *)
type summary = { med : float; q1 : float; q3 : float; n : int }

let summarize l =
  let a = sorted_floats l in
  {
    med = quantile_sorted a 0.5;
    q1 = quantile_sorted a 0.25;
    q3 = quantile_sorted a 0.75;
    n = Array.length a;
  }

let pp_summary unit_ s =
  Printf.sprintf "%.2f %s (IQR %.2f..%.2f, n=%d)" s.med unit_ s.q1 s.q3 s.n

(* Quantile of the first [n] entries of an int sample buffer. *)
let int_quantiles buf n qs =
  let a = Array.sub buf 0 n in
  Array.sort Int.compare a;
  let f = Array.map float_of_int a in
  List.map (quantile_sorted f) qs

let ratio num den = if den = 0.0 then 0.0 else num /. den
let fratio num den = ratio (float_of_int num) (float_of_int den)

(* -- GC -- *)

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int s.Gc.top_heap_words *. 8.0 /. 1e6

(* -- metrics and results -- *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let m name unit_ value = { name; value; unit_ }

(* Checks: each prints one line and folds into the result.  A failed
   check makes the run incorrect and adds [count] to [failed]: the
   operations or cases it stands for (faults, aborts, cases off
   expectation), or 1 for a check on the whole run. *)
type checks = { mutable failed_checks : int; mutable failed : int }

let new_checks () = { failed_checks = 0; failed = 0 }

let check ?(count = 1) cs name ok detail =
  if not ok then begin
    cs.failed_checks <- cs.failed_checks + 1;
    cs.failed <- cs.failed + count
  end;
  Printf.printf "check %-28s %s  %s\n%!" name
    (if ok then "PASS" else "FAIL") detail

let json_float v =
  if not (Float.is_finite v) then "0.0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_json r =
  let metrics =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
          (json_float x.value) (json_string x.unit_))
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " metrics)

(* -- layer counters --

   [Probe.charges] counts Prim calls by kind; a delta between two
   snapshots is what one stretch of work charged. *)
module Probe = Ibr_obs.Probe

let probe_delta before after =
  List.map
    (fun (k, n, _) ->
      let n0 =
        match List.find_opt (fun (k', _, _) -> k' = k) before with
        | Some (_, n0, _) -> n0
        | None -> 0
      in
      (k, n - n0))
    after

let count_of kinds delta =
  List.fold_left
    (fun acc (k, n) -> if List.mem k kinds then acc + n else acc)
    0 delta

(* The counters every traced workload reports: Prim calls per unit of
   work ([charges] over [charged] units), the failed share of CAS
   attempts in [cas] (default [charges]), and the reclaimer's sweep
   counters over [ops] units. *)
let counter_metrics ~charges ~charged ?(cas = charges) ~ops ~sweeps ~examined
    ~freed () =
  let per kinds = fratio (count_of kinds charges) charged in
  let cas_fail = count_of [ Probe.K_cas_fail ] cas in
  [
    m "prim.reads_per_op" "count/op" (per [ Probe.K_read ]);
    m "prim.hot_reads_per_op" "count/op" (per [ Probe.K_hot_read ]);
    m "prim.writes_per_op" "count/op" (per [ Probe.K_write ]);
    m "prim.cas_per_op" "count/op" (per [ Probe.K_cas; Probe.K_cas_fail ]);
    m "prim.fences_per_op" "count/op" (per [ Probe.K_fence ]);
    m "prim.faas_per_op" "count/op" (per [ Probe.K_faa ]);
    m "prim.cas_fail_frac" "frac"
      (fratio cas_fail (cas_fail + count_of [ Probe.K_cas ] cas));
    m "sched.steps_per_op" "count/op" (per (List.map fst charges));
    m "reclaimer.sweeps_per_kop" "count/kop" (fratio (sweeps * 1000) ops);
    m "reclaimer.examined_per_sweep" "blocks" (fratio examined sweeps);
    m "reclaimer.freed_frac" "frac" (fratio freed examined);
  ]

(* Allocator magazine and depot counters over [ops] units of work. *)
let alloc_metrics ~mag_hits ~mag_misses ~depot_refills ~ops =
  [
    m "alloc.mag_hit_frac" "frac" (fratio mag_hits (mag_hits + mag_misses));
    m "alloc.depot_refills_per_kop" "count/kop" (fratio (depot_refills * 1000) ops);
  ]

(* -- spans --

   A span is (id, parent, name, worker, start, end).  Coarse spans
   (setup, runner calls, checker calls) go in a list; per-operation
   spans are hot, so each worker appends them to its own preallocated
   int buffer tagged with the operation kind, and they share the
   enclosing coarse span as parent.  Everything stays in memory until
   [write] at the end of the run. *)
module Spans = struct
  type coarse = {
    id : int;
    parent : int;
    name : string;
    start_ns : int;
    end_ns : int;
  }

  type ops = {
    starts : int array;
    durs : int array;
    kinds : int array;
    mutable n : int;
    mutable dropped : int;  (* spans past the buffer's capacity *)
    worker : int;
    parent : int;
  }

  let coarse : coarse list ref = ref []
  let op_bufs : ops list ref = ref []
  let next_id = ref 1
  let enabled = ref false

  let kind_names = [| "get"; "insert"; "remove" |]

  (* The innermost open coarse span; coarse spans are only opened from
     the main domain, so they nest. *)
  let current = ref 0

  (* Run [f id] inside a new span whose parent is the enclosing one. *)
  let with_span name f =
    if not !enabled then f 0
    else begin
      let id = !next_id and parent = !current in
      incr next_id;
      current := id;
      let t0 = now_ns () in
      let finish () =
        current := parent;
        coarse :=
          { id; parent; name; start_ns = t0; end_ns = now_ns () } :: !coarse
      in
      match f id with
      | r -> finish (); r
      | exception e -> finish (); raise e
    end

  let ops_buffer ~worker ~capacity ~parent =
    let b =
      {
        starts = Array.make capacity 0;
        durs = Array.make capacity 0;
        kinds = Array.make capacity 0;
        n = 0;
        dropped = 0;
        worker;
        parent;
      }
    in
    op_bufs := b :: !op_bufs;
    b

  let add_op b ~kind ~start ~dur =
    let i = b.n in
    if i < Array.length b.starts then begin
      b.starts.(i) <- start;
      b.durs.(i) <- dur;
      b.kinds.(i) <- kind;
      b.n <- i + 1
    end
    else b.dropped <- b.dropped + 1

  (* p50/p99 and count of the recorded op spans of [kind]. *)
  let op_stats kind =
    let samples = ref [] in
    List.iter
      (fun b ->
        for i = 0 to b.n - 1 do
          if b.kinds.(i) = kind then samples := b.durs.(i) :: !samples
        done)
      !op_bufs;
    let a = Array.of_list !samples in
    match int_quantiles a (Array.length a) [ 0.5; 0.99 ] with
    | [ p50; p99 ] -> (p50, p99, Array.length a)
    | _ -> (0.0, 0.0, 0)

  (* Median and p99 of the recorded op spans, by kind. *)
  let ds_metrics () =
    List.concat
      (List.mapi
         (fun kind name ->
           let p50, p99, n = op_stats kind in
           Printf.printf "ds.%s: %d spans, p50 %.0f ns, p99 %.0f ns\n" name n p50
             p99;
           [ m ("ds." ^ name ^ "_ns") "ns" p50; m ("ds." ^ name ^ "_p99_ns") "ns" p99 ])
         (Array.to_list kind_names))

  (* Write every coarse span and up to [op_cap] op spans as TSV. *)
  let write ~path ~op_cap =
    let oc = open_out path in
    Printf.fprintf oc "id\tparent\tname\tworker\tstart_ns\tend_ns\n";
    List.iter
      (fun c ->
        Printf.fprintf oc "%d\t%d\t%s\t-\t%d\t%d\n" c.id c.parent c.name
          c.start_ns c.end_ns)
      (List.rev !coarse);
    let written = ref 0 and total = ref 0 and dropped = ref 0 in
    List.iter
      (fun b ->
        total := !total + b.n;
        dropped := !dropped + b.dropped;
        for i = 0 to b.n - 1 do
          if !written < op_cap then begin
            incr written;
            Printf.fprintf oc "-\t%d\t%s\t%d\t%d\t%d\n" b.parent
              kind_names.(b.kinds.(i)) b.worker b.starts.(i)
              (b.starts.(i) + b.durs.(i))
          end
        done)
      (List.rev !op_bufs);
    close_out oc;
    Printf.printf
      "spans: %d coarse + %d of %d recorded op spans written to %s \
       (%d op spans past the in-memory buffers)\n"
      (List.length !coarse) !written !total path !dropped
end
