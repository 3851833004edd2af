(** The reactor's kernel poller: one epoll instance (lib/net runs on
    Linux only), every registration edge-triggered.

    An fd is registered once ({!add}) and stays registered until
    {!remove} or its close; the kernel then reports each rise of its
    readiness once.  {!add} and {!modify} also report a direction that
    is already ready, so a waiter that cannot know whether it missed an
    edge re-arms with one {!modify}.  Error and hang-up count as
    both-ready: the waiter's next syscall surfaces the real errno.

    {!add}, {!modify} and {!remove} may be called from any thread;
    {!wait} and {!close} belong to the worker holding the reactor's
    turn. *)

type event = { fd : Unix.file_descr; readable : bool; writable : bool }

type t

val create : unit -> t
(** @raise Failure off Linux. *)

val add : t -> Unix.file_descr -> write:bool -> bool
(** Register the fd for reading, and for writing when [write].
    [false] when the fd cannot be registered (e.g. closed, or already
    registered). *)

val modify : t -> Unix.file_descr -> write:bool -> bool
(** Replace the fd's registration (same directions as {!add}); a
    direction already ready is reported by the next {!wait}.  [false]
    when the fd has no registration. *)

val remove : t -> Unix.file_descr -> unit
(** Drop the fd's registration; do it before the fd is closed. *)

val wait : t -> timeout_ms:int -> event list
(** Block until some registered fd reports or the timeout lapses
    ([timeout_ms < 0] = forever, [0] = non-blocking probe).  Returns
    the events, possibly [] (timeout or EINTR — callers loop). *)

val close : t -> unit
(** Release the epoll fd.  Idempotent. *)

val raise_nofile : int -> int
(** Raise the soft RLIMIT_NOFILE toward the argument — privileged
    processes raise the hard limit too, everyone else clamps to it;
    returns the resulting soft limit, [-1] if unreadable.  Lets the
    bench open tens of thousands of sockets without ulimit fiddling. *)
