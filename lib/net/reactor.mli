(** The reactor: kernel fds and deadlines for every fiber of the runs
    that wait on it.  It starts no thread.

    A worker domain with fibers to run never sits in epoll/poll/select
    (the paper's decoupled UCs).  A fiber that would block parks on a
    {!Fiber_rt.Fiber.Wake} token; a worker with nothing left to run
    waits in the {!Poller} itself, one worker at a time (the
    {!Fiber_rt.Fiber.Driver} turn), and on readiness or deadline fires
    the token; a wake owed to that worker pokes it out of the wait.  On
    epoll the parked fiber arms its own one-shot watch from its worker
    ({!Interest}), so a wait costs no command; on poll and select the
    watch is a command the turn holder runs.  The wake is
    {!Fiber_rt.Fiber.Wake.fire}: the engine routes the fiber back
    to the worker that parked it, and a turn notifies each woken peer
    worker once.  A wait is one {!Interest} watch holding its waiter's
    wake (the table is model-checked in [lib/check]); deadlines are
    absolute wall-clock seconds kept in a {!Timers} heap, the poller
    waits until the earliest, and the watch and the deadline timer
    race on one verdict CAS, so each wait has exactly one outcome.

    Lifecycle: {!create} before (or during) the fiber run; call the
    wait operations only from inside fibers.  A run binds the reactor
    at its first {!await_fd} or {!sleep_until}; until then (and for a
    run that never waits here) its idle workers park on their parkers.
    One run waits on one reactor: a wait on a second one raises
    [Invalid_argument], and so does a wait from a second run while the
    first still goes; runs one after another may share a reactor.
    {!shutdown} only after the fiber run has drained its net waits (any
    stragglers are woken spuriously rather than leaked, but that is a
    recovery path, not the contract). *)

type t

type dir = [ `R | `W ]

type stats = {
  polls : int;  (** poller waits: one per turn *)
  wakeups : int;  (** watches woken by readiness, reset or shutdown *)
  timers_fired : int;
  commands : int;
      (** commands the turn holders ran: timers, plus watches on the
          poll and select backends (an epoll wait sends none) *)
  errors : int;  (** turns rescued by the wake-everyone fallback *)
}

exception Reactor_stopped
(** Raised by the wait operations once {!shutdown} has begun. *)

val create : ?backend:[ `Select | `Poll | `Epoll | `Auto ] -> unit -> t
(** One poller and its self-pipe; no thread.  [backend] as in
    {!Poller.create}. *)

val shutdown : t -> unit
(** Take the turn for good (poking a worker out of the poller if one
    waits there), resolve any in-flight registrations (spurious wake),
    and close the self-pipe and poller.  A run still bound to the
    reactor parks its workers on their parkers from then on.
    Idempotent. *)

val backend : t -> Poller.backend

val shard_count : t -> int
(** Always 1: there is one poller.  Kept only because perfbench reads
    it. *)

val stats : t -> stats

val now : unit -> float
(** Wall-clock seconds (via the [Fiber_rt.Clock] seam); the time base
    of every [?deadline] below. *)

val await_fd :
  t -> ?deadline:float -> Unix.file_descr -> dir -> [ `Ready | `Timeout ]
(** Park the calling fiber until [fd] is ready in direction [dir]
    (level-triggered one-shot semantics, whatever the backend) or
    [deadline] passes.  Exactly one verdict even when readiness and the
    deadline race.  Error/hang-up conditions report [`Ready] — the
    caller's next syscall surfaces the errno.  Do not close an fd
    another fiber is still awaiting: under the epoll backend the kernel
    silently drops the registration and the waiter parks until
    {!shutdown}. *)

val sleep : t -> float -> unit
(** Park the calling fiber for at least the given seconds; other
    fibers (and domains) keep running. *)

val sleep_until : t -> float -> unit
(** Park the calling fiber until the absolute wall-clock time
    ({!now}); a past time returns at once. *)
