(* Reference kernels: fixed code of the benchmark's own that resembles a
   workload but runs none of the repository's code.

   On a shared virtual machine (2-vCPU Xeon under KVM) the host's other
   tenants slowed the benchmark down by up to 2x, in episodes from
   seconds to minutes long, so a workload's wall-clock speed followed
   them as much as the program.  Each round of a workload
   is therefore bracketed by two short runs of its kernel, and the
   round's figures are scaled by the kernel's time around it over the
   kernel's nominal time (see [scale]): they read as if the host ran the
   kernel at its nominal speed.  A slower host slows the kernel and the
   round alike; a slower program slows only the round.

   The kernels keep nothing they allocate while timed, so little of the
   program's garbage collection work can land in them. *)

let now_ns = Ibr_runtime.Monotonic.now_ns

(* -- map kernel --

   Each worker walks its own chained hash table of plain records (512
   buckets, 6144 of 8192 keys present, so chains of ~12 nodes sorted by
   key, ~200 KB), looking up keys of a fixed pseudo-random stream.
   Each lookup also allocates a short-lived block, and every fourth one
   increments a counter shared by all workers, so that the kernel, like
   the map workloads, pays for minor collections that stop every domain
   and for cache lines that move between cores.  All workers run at
   once, each on its own domain (worker 0 on the calling one), like a
   workload round, and each times its own lookups. *)

type node = Nil | Node of { key : int; next : node }

type table = { buckets : node array; keys : int array; mutable pos : int }

let buckets = 512
let key_range = 8192
let stream_len = 1 lsl 16
let shared = Atomic.make 0

let table ~worker =
  let b = Array.make buckets Nil in
  for key = key_range - 1 downto 0 do
    if key land 3 <> 0 then begin
      let i = key land (buckets - 1) in
      b.(i) <- Node { key; next = b.(i) }
    end
  done;
  let st = Random.State.make [| 0x7ab1e; worker |] in
  { buckets = b; keys = Array.init stream_len (fun _ -> Random.State.int st key_range);
    pos = 0 }

let rec mem key = function
  | Nil -> false
  | Node n -> if n.key < key then mem key n.next else n.key = key

(* Wall ns per lookup over [n] lookups. *)
let lookups t n =
  let hits = ref 0 and pos = ref t.pos in
  let t0 = now_ns () in
  for _ = 1 to n do
    let key = t.keys.(!pos) in
    if mem key t.buckets.(key land (buckets - 1)) then incr hits;
    (match Sys.opaque_identity (Some key) with
     | Some k -> hits := !hits + (k land 1)
     | None -> ());
    if !pos land 3 = 0 then Atomic.incr shared;
    pos := (!pos + 1) land (stream_len - 1)
  done;
  let ns = now_ns () - t0 in
  t.pos <- !pos;
  ignore (Sys.opaque_identity !hits);
  float_of_int ns /. float_of_int n

type map_kernel = table array

let map_kernel ~workers = Array.init workers (fun worker -> table ~worker)

(* Nominal ns per lookup, and lookups per worker per run (~8 ms). *)
let map_nominal_ns = 55.0
let map_lookups = 150_000

(* Mean over workers of each one's ns per lookup, all workers at once. *)
let run_map (k : map_kernel) =
  let others =
    Array.init (Array.length k - 1) (fun i ->
      Domain.spawn (fun () -> lookups k.(i + 1) map_lookups))
  in
  let ns = lookups k.(0) map_lookups in
  let ns = Array.fold_left (fun a d -> a +. Domain.join d) ns others in
  ns /. float_of_int (Array.length k)

(* -- simulator kernel --

   Fibers that each hash a counter and yield, resumed round-robin
   through an effect handler: the simulator's scheduling pattern
   without its cost model, rideable or tracker. *)

type _ Effect.t += Yield : unit Effect.t

(* Fibers, steps per run (~20 ms) and nominal ns per step. *)
let fibers = 96
let sim_steps = 200_000
let sim_nominal_ns = 103.0

(* Wall ns per fiber step. *)
let run_sim () =
  let q : (unit, unit) Effect.Deep.continuation Queue.t = Queue.create () in
  let acc = ref 0 and stop = ref false in
  let fiber i () =
    let x = ref i in
    while not !stop do
      x := Hashtbl.hash !x;
      acc := !acc + (!x land 7);
      Effect.perform Yield
    done
  in
  let start f =
    Effect.Deep.match_with f ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (e : a Effect.t) ->
            match e with
            | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  Queue.push (k : (unit, unit) Effect.Deep.continuation) q)
            | _ -> None);
      }
  in
  for i = 0 to fibers - 1 do start (fiber i) done;
  let t0 = now_ns () in
  for _ = 1 to sim_steps do
    Effect.Deep.continue (Queue.pop q) ()
  done;
  let ns = now_ns () - t0 in
  stop := true;
  Queue.iter (fun k -> Effect.Deep.continue k ()) q;
  ignore (Sys.opaque_identity !acc);
  float_of_int ns /. float_of_int sim_steps

(* -- scaling -- *)

(* [scale ~nominal ~before ~after] is the factor by which the round
   between two kernel runs is slower than it would be on a host that
   runs the kernel in [nominal] ns: divide times by it, multiply rates
   by it. *)
let scale ~nominal ~before ~after = (before +. after) /. 2.0 /. nominal
