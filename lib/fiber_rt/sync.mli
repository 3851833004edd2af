(** The fiber lock: one {!Mutex} and its {!Condition}.

    This is the lock a ULP body holds while it runs in the shared
    address space, and the one the [raw-mutex-in-fiber],
    [park-while-locked] and [lock-order-inversion] lint rules send
    fiber code to.  Blocking here parks the {e fiber}
    ({!Fiber.suspend_token}), never the worker domain; wake-ups are
    ownership handoffs that fire the waiter's token home
    ({!Fiber.Wake.fire}), to the worker that parked it.  Both keep their state in one
    [Atomic.t] walked by CAS and are recompiled inside [lib/check]
    against the traced shims, where a seeded-bug twin proves the
    checker can see the races this code avoids.

    A blocking acquire that fails its first try retries a bounded
    number of times before it parks, but only when the run has more
    than one worker: on a lone worker the holder is a fiber on that
    same worker, and it cannot release until the caller parks.  There
    are no tuning parameters.

    All operations must run inside the fiber engine ({!Fiber.run} or
    {!Fiber.run_parallel}); they perform effects and cannot be used
    from plain OS threads (an executor, a foreign thread) — those keep
    using [Stdlib.Mutex], with a [raw-mutex-in-fiber] lint waiver. *)

module Mutex : sig
  (** Spin-then-park list lock: a contended locker parks in a waiter
      list, and unlock hands the lock to the oldest waiter. *)

  type t

  val create : unit -> t
  val lock : t -> unit
  val try_lock : t -> bool

  val unlock : t -> unit
  (** @raise Invalid_argument if the mutex is not locked. *)

  val with_lock : t -> (unit -> 'a) -> 'a
end

module Condition : sig
  (** Use with {!Mutex}: [wait] atomically publishes the waiter before
      releasing the mutex (both inside the park registration), closing
      the classic unlock-then-enqueue lost-wakeup window. *)

  type t

  val create : unit -> t

  val wait : t -> Mutex.t -> unit
  (** Caller must hold the mutex; it is released while parked and
      re-acquired before returning.  No spurious wakeups, but as with
      any condition variable the guarding predicate must be re-checked
      in a loop: a signal only means the state {e was} true. *)

  val signal : t -> unit
  (** Wake the oldest waiter, if any. *)

  val broadcast : t -> unit
end
