(** Multiplexing of fd readiness for the reactor: a stateful poller with a
    persistent interest table — {!set} mutates interest, {!wait} blocks
    on it — behind one interface and three backends.

    - [`Epoll] (Linux; the [`Auto] choice there): level-triggered
      kernel registration, [wait] costs O(ready).  It also offers
      {!arm}, a one-shot watch the kernel disarms when it reports it;
      {!arm} is thread-safe, so a fiber arms its own watch from its
      worker and a wait costs the reactor no command.
    - [`Poll]: poll(2) via a local C stub; no FD_SETSIZE ceiling;
      compact interest arrays maintained incrementally (O(1) {!set}).
      The portable Unix backend and epoll's independent cross-check.
    - [`Select]: pure [Unix.select]; limited to fds below 1024 but runs
      anywhere; per-round event coalescing reuses one scratch table so
      even the fallback allocates nothing per wait.

    All backends agree: {!set} interest is level-triggered and
    persistent, events are reported only for current interest, and
    error/hang-up counts as both-ready (the waiter's next syscall
    surfaces the real errno).  {!set}, {!wait} and {!close} belong to
    the worker holding the reactor's turn; only {!arm} may be called
    from any thread. *)

type backend = [ `Select | `Poll | `Epoll ]

type event = { fd : Unix.file_descr; readable : bool; writable : bool }

type t

val create : ?backend:[ `Select | `Poll | `Epoll | `Auto ] -> unit -> t
(** [`Auto] (default) picks [`Epoll] where available, else [`Poll] on
    Unix, else [`Select].
    @raise Invalid_argument if [`Epoll] is requested on a platform
    without it (check {!epoll_available}). *)

val backend : t -> backend

val epoll_available : bool
(** Whether this build can create [`Epoll] pollers (Linux). *)

val set : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Declare persistent interest in [fd]; [~read:false ~write:false]
    drops it.  Idempotent.  Reactor thread only. *)

val oneshot : t -> bool
(** Whether {!arm} is available: the epoll backend. *)

val arm : t -> Unix.file_descr -> read:bool -> write:bool -> bool
(** Arm a one-shot watch on [fd] (epoll only): the next {!wait} that
    finds [fd] ready in an armed direction reports it once and disarms
    it; a later {!arm} re-arms it, and one already ready is reported
    at once.  Replaces [fd]'s previous one-shot mask.  Callable from
    any thread.  [false] when the fd is gone (e.g. closed).
    @raise Invalid_argument on the poll and select backends. *)

val wait : t -> timeout_ms:int -> event list
(** Block until some fd under interest is ready or the timeout lapses
    ([timeout_ms < 0] = forever, [0] = non-blocking probe).  Returns
    ready events, possibly [] (timeout or EINTR — callers loop). *)

val close : t -> unit
(** Release kernel resources (the epoll fd).  Idempotent. *)

val interest_count : t -> int
(** Fds under {!set} interest (one-shot {!arm}s are not counted) — a
    test/diagnostic hook. *)

val raise_nofile : int -> int
(** Raise the soft RLIMIT_NOFILE toward the argument — privileged
    processes raise the hard limit too, everyone else clamps to it;
    returns the resulting soft limit, [-1] if unreadable.  Lets the
    bench open tens of thousands of sockets without ulimit fiddling. *)
