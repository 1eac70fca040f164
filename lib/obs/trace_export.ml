(* Chrome trace-event JSON export (the Perfetto/about:tracing format):
   one track per simulated thread, operations and sweep phases as B/E
   duration spans, lifecycle points as instants, and each block's
   retire→reclaim interval as an async b/e pair — the arrow Perfetto
   draws is exactly the interval the paper's schemes reason about.

   Async pair ids are retire sequence numbers, not block ids: block
   ids are reused on reincarnation, so a block that dies twice needs
   two arrows. *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One event object; [extra] carries pre-rendered fields. *)
let emit oc ~first ~ph ~name ~tid ~ts extra =
  if not !first then output_string oc ",\n";
  first := false;
  Printf.fprintf oc
    "{\"name\":\"%s\",\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%d%s}"
    (escape name) ph tid ts extra

let instant oc ~first ~name ~tid ~ts args =
  let extra =
    ",\"s\":\"t\""
    ^ (if args = [] then ""
       else
         ",\"args\":{"
         ^ String.concat ","
             (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v) args)
         ^ "}")
  in
  emit oc ~first ~ph:"i" ~name ~tid ~ts extra

let write oc =
  let events = Probe.events () in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  (* Thread-name metadata, one per track that has events. *)
  List.iter
    (fun (tid, _) ->
       if not !first then output_string oc ",\n";
       first := false;
       Printf.fprintf oc
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
          \"args\":{\"name\":\"sim thread %d\"}}"
         tid tid)
    (Probe.per_thread ());
  (* Retire→reclaim pairing: latest open retire per block id. *)
  let open_retire : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let next_seq = ref 0 in
  List.iter
    (fun { Probe.ts; tid; ev } ->
       match ev with
       | Probe.Op_begin -> emit oc ~first ~ph:"B" ~name:"op" ~tid ~ts ""
       | Probe.Op_end -> emit oc ~first ~ph:"E" ~name:"op" ~tid ~ts ""
       | Probe.Sweep_begin { phase } ->
         emit oc ~first ~ph:"B"
           ~name:("sweep:" ^ Probe.phase_name phase)
           ~tid ~ts ""
       | Probe.Sweep_end { phase; freed } ->
         emit oc ~first ~ph:"E"
           ~name:("sweep:" ^ Probe.phase_name phase)
           ~tid ~ts
           (Printf.sprintf ",\"args\":{\"freed\":%d}" freed)
       | Probe.Alloc { block; reused } ->
         instant oc ~first ~name:"alloc" ~tid ~ts
           [ ("block", block); ("reused", if reused then 1 else 0) ]
       | Probe.Retire { block } ->
         let seq = !next_seq in
         incr next_seq;
         Hashtbl.replace open_retire block seq;
         emit oc ~first ~ph:"b" ~name:"retired" ~tid ~ts
           (Printf.sprintf ",\"cat\":\"reclaim\",\"id\":%d" seq)
       | Probe.Reclaim { block; unpublished } ->
         (match Hashtbl.find_opt open_retire block with
          | Some seq when not unpublished ->
            Hashtbl.remove open_retire block;
            emit oc ~first ~ph:"e" ~name:"retired" ~tid ~ts
              (Printf.sprintf ",\"cat\":\"reclaim\",\"id\":%d" seq)
          | _ ->
            (* Unpublished dealloc, or the retire fell out of a full
               ring: a plain instant keeps the track honest. *)
            instant oc ~first ~name:"free" ~tid ~ts [ ("block", block) ])
       | Probe.Reserve { slot } ->
         instant oc ~first ~name:"reserve" ~tid ~ts [ ("slot", slot) ]
       | Probe.Unreserve { slot } ->
         instant oc ~first ~name:"unreserve" ~tid ~ts [ ("slot", slot) ]
       | Probe.Epoch_advance { epoch } ->
         instant oc ~first ~name:"epoch_advance" ~tid ~ts [ ("epoch", epoch) ]
       | Probe.Crash -> instant oc ~first ~name:"crash" ~tid ~ts []
       | Probe.Ejection { victim } ->
         instant oc ~first ~name:"ejection" ~tid ~ts [ ("victim", victim) ]
       | Probe.Neutralization { victim } ->
         instant oc ~first ~name:"neutralization" ~tid ~ts
           [ ("victim", victim) ]
       | Probe.Pressure -> instant oc ~first ~name:"pressure" ~tid ~ts []
       | Probe.Handoff { block } ->
         instant oc ~first ~name:"handoff" ~tid ~ts [ ("block", block) ]
       | Probe.Drain { drained } ->
         instant oc ~first ~name:"drain" ~tid ~ts [ ("drained", drained) ])
    events;
  Printf.fprintf oc "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\
                     \"dropped\":%d}}\n"
    (Probe.dropped ())

let write_file path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc)

(* -- validation (CI, tests): well-formed, monotone per track -- *)

let validate (content : string) : (int, string) result =
  match Json.parse content with
  | Error e -> Error ("not valid JSON: " ^ e)
  | Ok root ->
    (match Option.bind (Json.member "traceEvents" root) Json.to_list with
     | None -> Error "missing traceEvents array"
     | Some events ->
       let last_ts : (int, float) Hashtbl.t = Hashtbl.create 64 in
       let err = ref None in
       let check i ev =
         if !err = None then
           match Option.bind (Json.member "ph" ev) Json.to_string with
           | None -> err := Some (Printf.sprintf "event %d: missing ph" i)
           | Some "M" -> ()
           | Some _ ->
             let num key = Option.bind (Json.member key ev) Json.to_float in
             (match num "tid", num "ts", num "pid" with
              | Some tid, Some ts, Some _ ->
                let tid = int_of_float tid in
                (match Hashtbl.find_opt last_ts tid with
                 | Some prev when ts < prev ->
                   err :=
                     Some
                       (Printf.sprintf
                          "event %d: track %d goes back in time (%g < %g)" i
                          tid ts prev)
                 | _ -> Hashtbl.replace last_ts tid ts)
              | _ ->
                err := Some (Printf.sprintf "event %d: missing pid/tid/ts" i))
       in
       List.iteri check events;
       (match !err with
        | Some e -> Error e
        | None -> Ok (List.length events)))

let validate_file path =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  validate content

(* -- histogram / attribution report for --hist -- *)

let report_hist ppf =
  (match Probe.age_hist () with
   | None -> Fmt.pf ppf "retire-age: histogram not enabled@."
   | Some h ->
     let n, p50, p90, p99, max = Metrics.summary h in
     Fmt.pf ppf
       "retire-age (cycles from retire to reclaim, %d blocks): p50=%d p90=%d \
        p99=%d max=%d@."
       n p50 p90 p99 max);
  match Probe.charges () with
  | [] -> ()
  | charges ->
    Fmt.pf ppf "cost attribution (per primitive):@.";
    List.iter
      (fun (k, count, cycles) ->
         Fmt.pf ppf "  %-18s %10d calls %12d cycles@."
           (Probe.cost_kind_name k) count cycles)
      charges

let observe ~trace ~hist ~threads f =
  if trace <> None then Probe.start ~threads ();
  if hist then Probe.enable_hist ();
  let result = f () in
  if hist || Probe.hist_enabled () then Fmt.pr "%t" report_hist;
  let ok =
    match trace with
    | None -> true
    | Some path ->
      write_file path;
      (match validate_file path with
       | Ok n ->
         Fmt.pr "trace: %d events -> %s@." n path;
         true
       | Error msg ->
         Fmt.epr "trace: INVALID (%s)@." msg;
         false)
  in
  (result, ok)
