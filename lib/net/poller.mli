(** Readiness multiplexing for the reactor: a stateful poller with a
    persistent interest table — {!set} mutates interest, {!wait} blocks
    on it — behind one interface and three backends.

    - [`Epoll] (Linux; the [`Auto] choice there): edge-triggered
      persistent kernel registration, [wait] costs O(ready).  Every
      {!set} issues an [EPOLL_CTL_MOD] even for an unchanged mask: the
      kernel's readiness re-check on MOD redelivers an edge consumed
      before the watch registered — what makes edge-triggering safe for
      the reactor's try-syscall-first discipline.
    - [`Poll]: poll(2) via a local C stub; no FD_SETSIZE ceiling;
      compact interest arrays maintained incrementally (O(1) {!set}).
      The portable Unix backend and epoll's independent cross-check.
    - [`Select]: pure [Unix.select]; limited to fds below 1024 but runs
      anywhere; per-round event coalescing reuses one scratch table so
      even the fallback allocates nothing per wait.

    All backends agree: events are reported only for currently-set
    interest, and error/hang-up counts as both-ready (the waiter's next
    syscall surfaces the real errno).  A poller belongs to the reactor
    thread; none of the calls are thread-safe. *)

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
(** Declare interest in [fd].  [~read:false ~write:false] drops it
    (epoll keeps the kernel registration with an empty mask — rearming
    is a cheap MOD).  Idempotent; call it again on every watch arm even
    when the mask is unchanged, so the epoll backend can re-check
    readiness. *)

val wait : t -> timeout_ms:int -> event list
(** Block until some fd under interest is ready or the timeout lapses
    ([timeout_ms < 0] = forever, [0] = non-blocking probe).  Returns
    ready events, possibly [] (timeout or EINTR — callers loop). *)

val close : t -> unit
(** Release kernel resources (the epoll fd).  Idempotent. *)

val interest_count : t -> int
(** Fds currently under (non-empty) interest — a test/diagnostic hook. *)

val raise_nofile : int -> int
(** Raise the soft RLIMIT_NOFILE toward the argument — privileged
    processes raise the hard limit too, everyone else clamps to it;
    returns the resulting soft limit, [-1] if unreadable.  Lets the
    bench open tens of thousands of sockets without ulimit fiddling. *)
