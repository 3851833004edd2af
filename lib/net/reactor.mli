(** The reactor: kernel fds and deadlines for every fiber of the runs
    that wait on it.  It starts no thread.

    A worker domain with fibers to run never sits in epoll_wait
    (the paper's decoupled UCs).  A fiber that would block parks on a
    {!Fiber_rt.Fiber.Wake} token; a worker with nothing left to run
    waits in the {!Poller} itself, one worker at a time (the
    {!Fiber_rt.Fiber.Driver} turn), and on readiness or deadline fires
    the token; a wake owed to that worker pokes it out of the wait.  The
    parked fiber publishes its own watch from its worker ({!Interest}),
    so a wait costs no command.  Each fd is registered with epoll once,
    edge-triggered; a wait right after EAGAIN ({!await_edge}) costs no
    syscall.  The wake is
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
    recovery path, not the contract).

    Close a waited fd with {!Fiber_io.close}, never a raw [Unix.close],
    while any reactor lives: the kernel drops a closed fd's registration
    without a report and reuses its number at once, and only
    {!Fiber_io.close} retires the registration first ({!forget}).  A
    wait on an fd whose number was reused after a raw close can park
    until {!shutdown}. *)

type t

type dir = [ `R | `W ]

type stats = {
  polls : int;  (** poller waits: one per turn *)
  wakeups : int;  (** watches woken by readiness, reset or shutdown *)
  timers_fired : int;
  commands : int;  (** commands the turn holders ran: timers only *)
  registrations : int;
      (** epoll_ctl adds and modifies: an fd's first wait, its first
          parked writer, and each {!await_fd} *)
  errors : int;  (** turns rescued by the wake-everyone fallback *)
}

exception Reactor_stopped
(** Raised by the wait operations once {!shutdown} has begun. *)

val create : unit -> t
(** One epoll poller and its self-pipe; no thread. *)

val shutdown : t -> unit
(** Take the turn for good (poking a worker out of the poller if one
    waits there), resolve any in-flight registrations (spurious wake),
    and close the self-pipe and poller.  A run still bound to the
    reactor parks its workers on their parkers from then on.
    Idempotent. *)

val backend : t -> [> `Epoll ]
(** Always [`Epoll]: the one poller backend.  Kept only because
    perfbench reads it. *)

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
    (level-triggered: an fd already ready reports at once) or
    [deadline] passes.  Exactly one verdict even when readiness and the
    deadline race.  Error/hang-up conditions report [`Ready] — the
    caller's next syscall surfaces the errno.  Costs one epoll_ctl: the
    re-arm that makes it level-triggered. *)

val await_edge :
  t -> ?deadline:float -> Unix.file_descr -> dir -> [ `Ready | `Timeout ]
(** {!await_fd} for a caller whose last syscall on [fd] in direction
    [dir] returned EAGAIN (or EINPROGRESS): it takes an edge that
    arrived since, or parks until the next, with no syscall once the fd
    is registered.  It may report [`Ready] spuriously; the caller
    retries its syscall.  Waiting here without that EAGAIN may park on
    readiness already reported. *)

val forget : Unix.file_descr -> unit
(** Retire [fd]'s registration and entry in every live reactor, waking
    any waiter still parked on it.  {!Fiber_io.close} calls it before
    closing; call it directly only for an fd closed another way. *)

val sleep : t -> float -> unit
(** Park the calling fiber for at least the given seconds; other
    fibers (and domains) keep running. *)

val sleep_until : t -> float -> unit
(** Park the calling fiber until the absolute wall-clock time
    ({!now}); a past time returns at once. *)
