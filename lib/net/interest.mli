(** The reactor's interest table: per fd, the watches parked on it and
    the union of their directions, under one lock shared by the parked
    fibers' workers and the reactor thread.

    On epoll a waiter {!arm}s its own watch: it publishes the watch and
    issues the fd's one-shot epoll_ctl ([sync]) under the lock.  The
    reactor thread only {!fire}s reported fds; the kernel disarmed the
    registration when it reported it, and [fire] re-arms only when a
    watch for the other direction is still queued.  On poll and select
    the reactor thread makes every call and [sync] maintains the
    poller's persistent interest.

    Depends only on [Mutex], [Hashtbl] and {!Readiness}: [lib/check]
    recompiles it against traced shims and model-checks arm vs fire
    (the seeded [Check.Buggy_interest] twins must be caught). *)

type dir = [ `R | `W ]

type t

val create : sync:(int -> int -> bool) -> t
(** [sync fd mask] makes the poller's interest in raw fd [fd] equal to
    [mask] (bit 1 read, bit 2 write); [false] means the fd is gone.
    Called with the table lock held. *)

val arm : t -> int -> dir -> Readiness.t -> unit
(** Publish a watch for the cell on the fd and sync the fd's union
    mask.  After {!close}, or when the fd is gone, the fd's stranded
    cells are posted instead (a spurious wake: the waiter retries its
    syscall). *)

val fire : t -> int -> readable:bool -> writable:bool -> int
(** The poller reported the fd: post every watch the event satisfies,
    re-sync the rest.  Returns the number of waiters woken. *)

val unwatch : t -> int -> Readiness.t -> unit
(** Drop the cell's watch (a waiter that lost to its deadline). *)

val reset : t -> int
(** Post every watch and drop all interest (a failed reactor round). *)

val close : t -> int
(** Post every watch and make later {!arm}s post their own cell. *)

val watched : t -> int
(** Fds with at least one watch — a test/diagnostic hook. *)
