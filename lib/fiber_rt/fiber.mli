(** A real cooperative fiber runtime on OCaml effect handlers
    (substrates S2 and S3 of DESIGN.md).

    One engine, the paper's Section VII M:N extension on OCaml 5
    domains: {!run_parallel} runs [domains] workers and {!run} is the
    same engine with one.  Per-domain Chase-Lev deques
    ({!Atomic_deque}, LIFO owner pop / FIFO randomized steal-half
    batches) plus a private overflow FIFO per worker for its own yields
    and a private lock-free MPSC inbox for what other threads deliver to
    it: a wake fired from outside the run's workers (the original KCs
    of {!Blt_rt}, a foreign thread) returns the fiber to the worker that
    parked it.  Lock-free fiber completion ({!Completion}), and a
    blocking idle policy (the paper's Table II):
    a worker with nothing to run parks at once on a Treiber idle stack
    ({!Idle_waker}), so new work wakes exactly one of them, without the
    thundering herd.  When [domains] exceeds the host's cores the
    excess workers start unlaunched, and only a delivery aimed at one
    of them ({!spawn_on}, a wake sent to its inbox) spawns
    its domain.  A lone worker runs local spawns and wakes in FIFO
    order.  Only runnable continuations migrate between domains; a
    fiber's coupled sections still run on its own original KC ({!Kc}),
    preserving system-call consistency under migration. *)

type fiber = private {
  fid : int;
  mutable state : [ `Runnable | `Running | `Suspended | `Done ];
  completion : unit Completion.t;
      (** lock-free Done/joiners protocol; {!join} never locks *)
  mutable kc : Kc.t option;
      (** the original KC ({!Blt_rt}) this fiber holds, if it coupled:
          set by {!lease_kc}, given back when the fiber finishes *)
}

exception Not_in_scheduler

val run : (unit -> unit) -> unit
(** [run main] is [run_parallel ~domains:1 main]: [main] plus everything
    it spawns runs to completion on the calling domain alone, local
    spawns and wakes in FIFO order; the run's KCs are shut down on
    exit.
    @raise Invalid_argument when nested inside a run. *)

(** Scheduler telemetry: cheap monotonic per-worker counters aggregated
    lock-free.  A snapshot taken mid-run ({!sched_stats}) is racy but
    each counter is monotonic; the snapshot delivered through
    [on_stats] after a run is exact. *)
module Sched_stats : sig
  type t = {
    domains : int;  (** worker count of the run *)
    steals : int;  (** items obtained from other workers' deques *)
    steal_attempts : int;  (** steal sessions entered *)
    steal_fails : int;  (** sessions that came back empty *)
    parks : int;  (** parks slept *)
    deep_parks : int;
        (** always 0: the pool has one idle stack.  Kept only because
            perfbench reads it. *)
    wakes : int;  (** wake tokens delivered to workers *)
    spins : int;
        (** always 0: idle workers park without spinning.  Kept only
            because perfbench reads it. *)
    inj_drains : int;
        (** non-empty drains of the workers' private inboxes, where
            every wake fired off the run's workers and every
            {!spawn_on} child arrives (the name is kept because
            perfbench reads it) *)
    active_now : int;  (** launched workers, at snapshot time *)
    target_now : int;  (** [min domains cores]: the workers launched at start *)
    active_hist : int array;
        (** samples of the launched-worker count (index = count, in
            [0, domains]), taken at fairness ticks and park entries *)
  }

  val steal_fail_rate : t -> float
  (** [steal_fails / steal_attempts] (0 when no sessions ran): the
      oversubscribed signature when it stays near 1. *)

  val active_p50 : t -> int
  (** Weighted median of [active_hist]: the pool width the run actually
      launched, as opposed to the [domains] it was asked for. *)
end

val run_parallel :
  ?domains:int -> ?on_stats:(Sched_stats.t -> unit) -> (unit -> unit) -> unit
(** Run [main] plus everything it spawns to completion on [domains]
    worker domains (default [Domain.recommended_domain_count ()]; the
    calling domain is worker 0).  Workers [0, min domains cores) start
    at once; an explicit [domains] above the host's core count is
    honored as capacity: each worker beyond it is launched on the first
    delivery aimed at it ({!spawn_on}, a wake sent to its inbox), and
    never otherwise.
    A pool of one worker ([~domains:1], or the default on a one-core
    host) has no thief to take work from it, so it queues local spawns
    and wakes FIFO rather than on the LIFO deque: fork-join code runs
    breadth-first there, with its whole frontier live at once (more
    memory and time than the depth-first order of a wider pool).
    The run's KCs ({!lease_kc}) are shut down on exit, before the
    helper domains are joined; an uncaught exception in any fiber
    aborts the run and re-raises here.  [on_stats] receives the run's
    exact scheduler telemetry after completion.
    @raise Invalid_argument for [domains < 1] or when nested. *)

val sched_stats : unit -> Sched_stats.t option
(** Inside a run, a racy-but-monotonic mid-run snapshot of the ambient
    engine's telemetry; [None] elsewhere (same thread-identity rule as
    {!worker_index}). *)

val spawn : (unit -> unit) -> fiber

val spawn_on : worker:int -> (unit -> unit) -> fiber
(** Spawn with placement: the child starts on worker
    [worker mod domains] (delivered to its private inbox — the accept
    distributor of [lib/net] uses this to spread connection handlers
    round-robin).  Placement is a start hint, not a pin: the child may
    later migrate by stealing.  Under {!run} every index names the one
    worker. *)

val yield : unit -> unit
val self : unit -> fiber
val id : fiber -> int
val state : fiber -> [ `Runnable | `Running | `Suspended | `Done ]

(** One-shot wake tokens: the resumption right for a suspended fiber,
    safe to duplicate across racing wakers (I/O readiness vs a timer,
    a KC vs a canceller).  Exactly one {!Wake.fire} wins.  A
    token remembers the worker that parked its fiber, its home. *)
module Wake : sig
  type token

  val fire : token -> bool
  (** Schedule the parked fiber, from any OS thread or domain.  [true]
      iff this call claimed the token; a [false] return means another
      waker won and the caller must treat the fiber as not-woken-by-us
      (e.g. report [`Timeout] only if the timer's fire returned
      [true]).  From any thread but a worker of the fiber's run, the
      continuation goes to its home worker's private inbox (never
      stolen), so it resumes where it parked.  A worker running a
      reactor turn ({!Driver}) puts its own fibers straight on its
      private queue and notifies each other worker it woke once, when
      the turn ends; any other worker of the run queues the fiber
      locally, where an idle peer may steal it. *)
end

(** A reactor as the engine sees it.  A run binds the reactor its fibers
    wait on; from then on a worker with nothing to run waits in that
    reactor's poller instead of on its parker, when no other worker
    holds the reactor's turn (one worker at a time).  A wake aimed at
    that worker pokes the poller; the wakes a turn fires route as
    {!Wake.fire} says.  A worker that leaves the turn while
    watches or timers remain wakes a parked peer to take it, and a busy
    worker takes a non-blocking turn at its fairness tick when nobody
    has polled since its last one.  A run that never binds parks on its
    parkers alone. *)
module Driver : sig
  type t

  val make :
    run:(block:(unit -> bool) -> unit) ->
    poke:(unit -> unit) ->
    pending:(unit -> bool) ->
    t
  (** [run ~block] is one turn: run queued commands, wait in the poller
      (for no longer than the next deadline, and only when [block ()],
      evaluated after earlier pokes are drained, returns [true]),
      dispatch readiness and fire due timers.  [poke] ends a wait in
      progress, or the next one if none is.  [pending ()]: watches,
      timers or commands remain. *)

  val bind : t -> unit
  (** Bind the ambient run to the driver; a no-op once bound.  Call
      from a fiber, before its first wait on the reactor.
      @raise Invalid_argument if the run is bound to another driver, or
      the driver to another run still going (sequential runs may share
      one).
      @raise Not_in_scheduler outside any run. *)

  val close : t -> unit
  (** Take the turn for good, poking its holder out of the poller until
      it leaves.  Later parks use the parkers; the caller owns the
      poller from then on. *)
end

val suspend : ((unit -> unit) -> unit) -> unit
(** Park the calling fiber; the callback receives a wake function
    callable exactly once from any OS thread or domain (extra calls are
    absorbed). *)

val suspend_token : (Wake.token -> unit) -> unit
(** Like {!suspend} but hands out the raw {!Wake.token}, for callers
    that register several competing wakers and need to know which one
    won ({!Wake.fire}'s return value).  The token may be fired from any
    OS thread or domain, even before [register] returns. *)

val join : fiber -> unit

val live : unit -> int
(** Fibers not yet [`Done] under the ambient engine.
    @raise Not_in_scheduler outside any engine. *)

val worker_index : unit -> int option
(** Inside a run, the index of the worker domain currently executing
    the caller ([Some 0 .. domains-1]; [Some 0] under {!run}); [None]
    outside any engine — including on OS threads merely sharing a
    worker's domain (a KC): the context is
    keyed by thread identity, not just [Domain.DLS].  A fiber that
    observes two different indices across a suspension has migrated. *)

val num_workers : unit -> int option
(** Inside a run, the worker-domain count of the ambient run ([Some 1]
    under {!run}); [None] elsewhere (same thread-identity rule as
    {!worker_index}). *)

val lease_kc : unit -> Kc.t
(** The calling fiber's original KC.  The first call leases one from the
    run's pool ({!Kc.lease}): a KC some finished fiber gave back, or a
    new KC thread when none is free.  The fiber keeps it, across
    migrations, until it finishes; two live fibers never share a KC.
    When the fiber finishes, the KC goes straight back to the pool:
    every coupled section the fiber made has woken it by then, and the
    KC took the last one off its slot before running it, so the next
    owner's first section lands in an empty slot.  The pool has no size knob: it grows to the most
    coupling fibers alive at once.
    @raise Not_in_scheduler outside any engine. *)
