(** Scaling workloads for the parallel fiber runtime (substrate S3):
    wall-clock micro-benchmarks of {!Fiber_rt.Fiber.run_parallel} —
    spawn/join fan-out, fork-join trees, yield churn, cross-domain
    ping-pong through {!Fiber_rt.Sync} mailboxes and the contended
    {!Fiber_rt.Sync.Mutex}.  These run on the real machine, not the
    simulated one; speedup beyond 1 domain requires real cores. *)

type result = {
  name : string;
  domains : int;
  items : int;  (** fibers finished / yields done / messages received *)
  elapsed : float;  (** wall-clock seconds *)
  throughput : float;  (** items per second *)
  steals : int;  (** successful deque steals during the run *)
  sched : Fiber_rt.Fiber.Sched_stats.t option;
      (** full scheduler telemetry of the run — steal fail rate, parks,
          wakes, the active-worker histogram behind the measured
          oversubscription flag *)
}

val with_stats :
  name:string -> domains:int -> items:int -> (unit -> unit) -> result
(** Run [f] under {!Fiber_rt.Fiber.run_parallel} with [domains] workers
    and package wall clock + scheduler telemetry as a [result] — the
    wrapper behind every workload here, exported so other libraries
    (e.g. {!Proc_workload}) produce rows of the same shape. *)

val spawn_join : domains:int -> fibers:int -> work:int -> result
(** Fan out [fibers] fibers of [work] opaque additions each, join all —
    the embarrassingly parallel speedup-curve workload. *)

val yield_storm : domains:int -> fibers:int -> yields:int -> result
(** [fibers] fibers each yielding [yields] times: dispatch latency. *)

val work_steal_tree : domains:int -> depth:int -> work:int -> result
(** Recursive fork-join binary tree: every node does [work] opaque
    additions then spawns and joins two children ([2^(depth+1) - 1]
    nodes total).  Load balance depends on work stealing, so this is
    the steal-half batching workload. *)

val ping_pong : domains:int -> msgs:int -> result
(** Two fibers bouncing [msgs] messages through two one-slot mailboxes,
    each a {!Fiber_rt.Sync.Mutex}, a {!Fiber_rt.Sync.Condition} and a
    slot: the cross-domain wake-up path. *)

val sync_mutex : domains:int -> fibers:int -> iters:int -> result
(** Contended counter: [fibers] fibers each take the
    {!Fiber_rt.Sync.Mutex} [iters] times to bump a shared ref — pure
    handoff throughput under maximal contention.  The row keeps its
    historical name [sync_mutex_park]. *)

val coupled_latencies : domains:int -> busy:int -> calls:int -> float array
(** [calls] timed {!Fiber_rt.Blt_rt.coupled} [getpid] round trips from
    one fiber while [busy] sibling fibers loop on a 20k-addition sum
    and {!Fiber_rt.Fiber.yield}: the coupled cost when the worker that
    leased the KC is busy ([busy = 0]: idle).  Per-call seconds. *)

val host_stalls : seconds:float -> min_gap:float -> float array
(** Spin on the clock for [seconds] (call it outside any fiber run) and
    return each gap longer than [min_gap] between two consecutive
    reads, in seconds: the time the host took from a thread that never
    blocks. *)

val speedup_curve :
  domain_counts:int list -> fibers:int -> work:int -> (result * float) list
(** [spawn_join] at each domain count paired with its speedup relative
    to the first entry (conventionally 1 domain). *)
