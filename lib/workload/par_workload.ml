(* Scaling workloads for the parallel fiber runtime (substrate S3):
   wall-clock micro-benchmarks of the work-stealing scheduler in
   [Fiber_rt.Fiber.run_parallel].  Unlike the rest of lib/workload these
   run on the real machine, not the simulated one -- bench/main.exe's
   [parallel] target times them for 1, 2 and 4 domains.

   Three shapes:
   - [spawn_join]: embarrassingly parallel fan-out/fan-in -- the
     speedup-curve workload (scales with domains on a multicore host);
   - [yield_storm]: scheduler-bound yield churn -- measures dispatch
     latency through each worker's private overflow FIFO;
   - [ping_pong]: two fibers bouncing messages over bounded channels --
     cross-domain wake-up latency (the couple/decouple handoff shape of
     the paper's Table V, on real cores). *)

module Fiber = Fiber_rt.Fiber
module Channel = Fiber_rt.Channel

type result = {
  name : string;
  domains : int;
  items : int; (* fibers finished / yields done / messages received *)
  elapsed : float; (* wall-clock seconds *)
  throughput : float; (* items per second *)
  steals : int; (* successful deque steals during the run *)
  sched : Fiber.Sched_stats.t option;
      (* full scheduler telemetry of the run (None only for results
         not produced by [with_stats]) *)
}

let now () = Fiber_rt.Clock.now ()

(* Opaque compute kernel: [work] additions the optimizer cannot drop. *)
let spin work =
  let acc = ref 0 in
  for i = 1 to work do
    acc := !acc + (i land 7)
  done;
  ignore (Sys.opaque_identity !acc)

let with_stats ~name ~domains ~items f =
  let sched = ref None in
  let t0 = now () in
  Fiber.run_parallel ~domains ~on_stats:(fun s -> sched := Some s) f;
  let elapsed = now () -. t0 in
  {
    name;
    domains;
    items;
    elapsed;
    throughput = (if elapsed > 0.0 then float_of_int items /. elapsed else 0.0);
    steals =
      (match !sched with Some s -> s.Fiber.Sched_stats.steals | None -> 0);
    sched = !sched;
  }

(* Fan out [fibers] fibers of [work] compute each from one root, join
   them all: spawn/join throughput, and the speedup-curve workload. *)
let spawn_join ~domains ~fibers ~work =
  with_stats ~name:"spawn_join" ~domains ~items:fibers (fun () ->
      let fs = List.init fibers (fun _ -> Fiber.spawn (fun () -> spin work)) in
      List.iter Fiber.join fs)

(* [fibers] fibers each yielding [yields] times: dispatch churn. *)
let yield_storm ~domains ~fibers ~yields =
  with_stats ~name:"yield_storm" ~domains ~items:(fibers * yields) (fun () ->
      let fs =
        List.init fibers (fun _ ->
            Fiber.spawn (fun () ->
                for _ = 1 to yields do
                  Fiber.yield ()
                done))
      in
      List.iter Fiber.join fs)

(* Recursive fork-join over a binary tree of depth [depth]: every node
   does [work] opaque additions, then spawns and joins two children.
   Unlike [spawn_join]'s flat fan-out from one root, the frontier is
   produced all over the machine, so load balance depends on thieves
   moving subtrees -- the steal-half path's headline workload. *)
let work_steal_tree ~domains ~depth ~work =
  let nodes = (1 lsl (depth + 1)) - 1 in
  with_stats ~name:"work_steal_tree" ~domains ~items:nodes (fun () ->
      let rec node d =
        spin work;
        if d < depth then begin
          let left = Fiber.spawn (fun () -> node (d + 1)) in
          let right = Fiber.spawn (fun () -> node (d + 1)) in
          Fiber.join left;
          Fiber.join right
        end
      in
      node 0)

(* Two fibers, two rendezvous channels, [msgs] round trips: the
   cross-domain wake-up path.  With domains >= 2 the endpoints usually
   land on different domains: every message is a wake fired on one
   worker, which queues the receiver on its own deque and un-parks a
   peer to steal it. *)
let ping_pong ~domains ~msgs =
  with_stats ~name:"ping_pong" ~domains ~items:msgs (fun () ->
      let there = Channel.create ~capacity:1 () in
      let back = Channel.create ~capacity:1 () in
      let ponger =
        Fiber.spawn (fun () ->
            let rec loop () =
              match Channel.recv there with
              | Some v ->
                  Channel.send back v;
                  loop ()
              | None -> ()
            in
            loop ())
      in
      let pinger =
        Fiber.spawn (fun () ->
            for i = 1 to msgs do
              Channel.send there i;
              ignore (Channel.recv back)
            done;
            Channel.close there)
      in
      Fiber.join pinger;
      Fiber.join ponger)

(* [calls] timed [Blt_rt.coupled] getpid round trips from one fiber,
   beside [busy] fibers that each loop on a 20k-addition sum and a
   yield until the caller is done.  The KC is a systhread of the
   leasing worker's domain, so this prices how soon a busy worker lets
   it run -- the paper's couple() with a KC that must wait for a core.
   Returns the per-call wall clock in seconds. *)
let coupled_latencies ~domains ~busy ~calls =
  let lat = Array.make calls 0.0 in
  let finished = Atomic.make false in
  Fiber.run_parallel ~domains (fun () ->
      let spinners =
        List.init busy (fun _ ->
            Fiber.spawn (fun () ->
                while not (Atomic.get finished) do
                  spin 20_000;
                  Fiber.yield ()
                done))
      in
      for i = 0 to calls - 1 do
        let t0 = now () in
        ignore (Fiber_rt.Blt_rt.coupled (fun () -> Unix.getpid ()));
        lat.(i) <- now () -. t0
      done;
      Atomic.set finished true;
      List.iter Fiber.join spinners);
  lat

(* The host's own stalls, for reading a coupled latency: spin on the
   clock for [seconds], outside any fiber run, and return every gap
   between two consecutive reads longer than [min_gap] -- time the host
   took from a thread that never blocks or yields. *)
let host_stalls ~seconds ~min_gap =
  let stop = now () +. seconds in
  let rec go prev acc =
    let t = now () in
    if t >= stop then acc
    else go t (if t -. prev > min_gap then (t -. prev) :: acc else acc)
  in
  Array.of_list (go (now ()) [])

(* ---------- synchronization workloads (lib/fiber_rt/sync.ml) ---------- *)

module Sync = Fiber_rt.Sync

(* Contended counter: [fibers] fibers each take the lock [iters] times
   to bump a plain ref.  Pure handoff throughput under maximal
   contention.  The row name predates the single mutex kind; it stays
   so [bench parallel --diff] keeps matching committed rows. *)
let sync_mutex ~domains ~fibers ~iters =
  with_stats ~name:"sync_mutex_park" ~domains ~items:(fibers * iters)
    (fun () ->
      let m = Sync.Mutex.create () in
      let counter = ref 0 in
      let fs =
        List.init fibers (fun _ ->
            Fiber.spawn (fun () ->
                for _ = 1 to iters do
                  Sync.Mutex.with_lock m (fun () -> incr counter)
                done))
      in
      List.iter Fiber.join fs;
      assert (!counter = fibers * iters))

(* The speedup curve of the acceptance criteria: [spawn_join] at each
   domain count, plus the ratio to the 1-domain run. *)
let speedup_curve ~domain_counts ~fibers ~work =
  let results =
    List.map (fun d -> spawn_join ~domains:d ~fibers ~work) domain_counts
  in
  let base =
    match results with
    | r :: _ -> r.elapsed
    | [] -> invalid_arg "Par_workload.speedup_curve: no domain counts"
  in
  List.map
    (fun r -> (r, if r.elapsed > 0.0 then base /. r.elapsed else 0.0))
    results
