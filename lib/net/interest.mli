(** The reactor's interest table: per fd, the watches parked on it and
    the union of their directions, under one lock shared by the parked
    fibers' workers and the worker holding the reactor's turn.

    On epoll a waiter {!arm}s its own watch: it publishes the watch and
    issues the fd's one-shot epoll_ctl ([sync]) under the lock.  The
    turn holder only {!fire}s reported fds; the kernel disarmed the
    registration when it reported it, and [fire] re-arms only when a
    watch for the other direction is still queued.  On poll and select
    the turn holder makes every call and [sync] maintains the poller's
    persistent interest.

    A watch holds its waiter's wake closure, which the table calls
    after its lock is released, at most once per watch.

    Depends only on [Mutex] and [Hashtbl]: [lib/check] recompiles it
    against traced shims and model-checks arm vs fire (the seeded
    [Check.Buggy_interest] twins must be caught). *)

type dir = [ `R | `W ]

type watch = { dir : dir; wake : unit -> unit }
(** One parked waiter.  [wake] must be callable from any thread and
    must not take the table's lock; {!arm} and {!unwatch} identify a
    watch by physical identity. *)

type t

val create : sync:(int -> int -> bool) -> t
(** [sync fd mask] makes the poller's interest in raw fd [fd] equal to
    [mask] (bit 1 read, bit 2 write); [false] means the fd is gone.
    Called with the table lock held. *)

val arm : t -> int -> watch -> unit
(** Publish the watch on the fd and sync the fd's union mask.  After
    {!close}, or when the fd is gone, the fd's stranded watches are
    woken instead (a spurious wake: the waiter retries its syscall). *)

val fire : t -> int -> readable:bool -> writable:bool -> int
(** The poller reported the fd: wake every watch the event satisfies,
    re-sync the rest.  Returns the number of waiters woken. *)

val unwatch : t -> int -> watch -> unit
(** Drop the watch (a waiter that lost to its deadline). *)

val reset : t -> int
(** Wake every watch and drop all interest (a failed reactor round).
    Returns the number woken. *)

val close : t -> int
(** Wake every watch and make later {!arm}s wake their own watch.
    Returns the number woken. *)

val watched : t -> int
(** Fds with at least one watch, kept as a count: the reactor's
    hand-off check reads it whenever a worker leaves the turn. *)
