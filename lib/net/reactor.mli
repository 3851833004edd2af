(** The reactor: one dedicated OS thread multiplexing kernel fds and
    deadlines for every fiber of the ambient runtime.

    Worker domains never sit in epoll/poll/select — they keep running
    fibers (the paper's decoupled UCs).  A fiber that would block parks
    on a {!Fiber_rt.Fiber.Wake} token; the reactor thread waits in its
    {!Poller} and, on readiness or deadline, fires the token.  The wake
    is routed to the awaiting fiber's home worker's private inbox
    ({!Fiber_rt.Fiber.Wake.fire_to}) rather than the global injection
    channel, with the un-park notifications batched and flushed once
    per poll round.  Readiness handshakes use the {!Readiness} CAS
    cells (model-checked in [lib/check]); deadlines are absolute
    wall-clock seconds kept in a {!Timers} heap, the poller waits until
    the earliest, and every timeout-vs-completion race resolves by a
    verdict CAS to exactly one outcome.

    Lifecycle: {!create} before (or during) the fiber run; call the
    wait operations only from inside fibers; {!shutdown} only after the
    fiber run has drained its net waits (any stragglers are woken
    spuriously rather than leaked, but that is a recovery path, not the
    contract). *)

type t

type dir = [ `R | `W ]

type stats = {
  polls : int;  (** poller wait rounds *)
  wakeups : int;  (** readiness posts that woke a waiter *)
  timers_fired : int;
  commands : int;
  errors : int;  (** reactor rounds rescued by the wake-everyone fallback *)
}

exception Reactor_stopped
(** Raised by the wait operations once {!shutdown} has begun. *)

val create : ?backend:[ `Select | `Poll | `Epoll | `Auto ] -> unit -> t
(** Spawn the reactor thread, which owns one poller.  [backend] as in
    {!Poller.create}. *)

val shutdown : t -> unit
(** Stop and join the reactor thread, close the self-pipe and poller,
    and resolve any in-flight registrations (spurious wake).
    Idempotent. *)

val backend : t -> Poller.backend

val shard_count : t -> int
(** Always 1: there is one reactor thread.  Kept only because
    perfbench reads it. *)

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
