(** The reactor's interest table: per fd, its kernel registration, the
    watches parked on it, and the edges that arrived while no watch of
    their direction was parked.  One lock, shared by the parked fibers'
    workers and the worker holding the reactor's turn.

    An fd is registered once, edge-triggered, at its first {!arm}; the
    turn holder {!fire}s what the kernel reports.  A direction reported
    with no watch parked sets that direction's pending bit, and the
    next {!arm} in that direction consumes it instead of parking: the
    check and the publication share one critical section, so an edge
    that lands between a waiter's EAGAIN and its park is never lost.

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

val create : register:(int -> was:int -> int -> bool) -> t
(** [register fd ~was mask] makes the kernel's registration of raw fd
    [fd] [mask] (bit 1 read, bit 2 write) where it was [was]: [was = 0]
    adds it, [mask = 0] removes it, anything else modifies it.  Adding
    and modifying report a direction already ready.  [false] means the
    fd is gone.  Called with the table lock held. *)

val arm : t -> int -> watch -> rearm:bool -> unit
(** Park the watch on the fd, registering the fd (or its write
    direction) first if need be.  Without [rearm] -- the caller's
    syscall just returned EAGAIN -- a pending edge of the watch's
    direction is consumed and the watch woken at once, and a registered
    fd costs no syscall.  With [rearm] the pending bit is dropped and
    the registration re-armed with one modify, which reports the fd if
    it is ready now: the level-triggered wait of a caller that did not
    just see EAGAIN.  After {!close}, or when the fd is gone, the watch
    is woken at once (a spurious wake: the waiter retries its
    syscall). *)

val fire : t -> int -> readable:bool -> writable:bool -> int
(** The poller reported the fd: wake every watch the event satisfies
    and mark pending each reported direction no watch took.  Returns
    the number of waiters woken. *)

val unwatch : t -> int -> watch -> unit
(** Drop the watch (a waiter that lost to its deadline). *)

val forget : t -> int -> unit
(** The fd is about to be closed: remove its registration and entry,
    waking any watch still parked on it. *)

val reset : t -> int
(** Wake every watch (a failed reactor round).  Returns the number
    woken. *)

val close : t -> int
(** Wake every watch, drop every entry and make later {!arm}s wake
    their own watch.  Returns the number woken. *)

val watched : t -> int
(** Fds with at least one watch, kept as a count: the reactor's
    hand-off check reads it whenever a worker leaves the turn. *)
