(** A one-permit parker for an OS thread (a worker or an original KC),
    and the wake-after-release rule.

    A worker and the KCs it leases are systhreads of one domain, and
    only the holder of the domain's runtime lock runs OCaml.  A thread
    woken while its waker still holds that lock wakes only to block on
    the lock again: two wasted context switches per wake.  So a wake
    made inside {!deferring}, aimed at a thread that last parked on the
    caller's domain, is not sent at once but {e owed}: the calling OS
    thread keeps it in a slot with room for one wake and sends it at
    its next {!park}, right after releasing the runtime lock, or at its
    next {!flush}.  Any further wake is sent at once, and so is a wake
    aimed at a thread of another domain, which does not wait for this
    domain's lock.

    Invariant: an owed wake is never held across an OS sleep other than
    {!park}, which sends it first.  Its holder flushes it before it
    runs work that could wait on the owed thread. *)

type t

val create : unit -> t

val unpark : t -> unit
(** Set the permit and wake the thread parked on [t], if any.  Inside
    {!deferring} the wake may be owed instead (see above).  Never
    releases the runtime lock. *)

val park : t -> unit
(** Sleep until the permit is set, then clear it.  Only the owner
    thread of [t] parks on it.  Releases the runtime lock first, then
    sends the calling thread's owed wake, if any.  A permit set while
    nobody sleeps makes the next [park] return at once. *)

val deferring : (unit -> 'a) -> 'a
(** [deferring f] runs [f] with the calling thread's wakes deferred:
    the first {!unpark} aimed at a thread that last parked on this
    domain becomes the thread's owed wake. *)

val flush : unit -> unit
(** Send the calling thread's owed wake now, if any. *)
