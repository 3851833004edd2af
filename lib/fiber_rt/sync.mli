(** Fiber-aware synchronization primitives.

    Blocking here parks the {e fiber} ({!Fiber.suspend_token}), never
    the worker domain; wake-ups are ownership handoffs routed through
    {!Fiber.Wake.fire_to} to the worker that parked the waiter.  Every
    primitive keeps its state in one [Atomic.t] walked by CAS and is
    recompiled inside [lib/check] against the traced shims, where a
    seeded-bug twin proves the checker can see the races this code
    avoids.

    All operations must run inside the fiber engine ({!Fiber.run} or
    {!Fiber.run_parallel}); they perform effects and cannot be used
    from plain OS threads (a reactor shard, an executor) — those keep
    using [Stdlib.Mutex], with a [raw-mutex-in-fiber] lint waiver. *)

module Mutex : sig
  type t

  type kind =
    | Park  (** bounded CAS spinning, then park in a waiter list;
                unlock hands the lock to the oldest waiter *)
    | Queued
        (** CLH queue lock: each locker waits on its predecessor's
            node, so handoff is FIFO and CAS contention is spread over
            per-locker cells; unlock never waits.  [unlock] must be
            called by the locking fiber. *)

  val create : ?spin:int -> ?kind:kind -> unit -> t
  (** [spin] bounds the pre-park retry loop (default 32; 0 parks
      immediately — the interleaving checker uses that). *)

  val kind : t -> kind
  val lock : t -> unit
  val try_lock : t -> bool

  val unlock : t -> unit
  (** @raise Invalid_argument on a [Park] mutex that is not locked. *)

  val with_lock : t -> (unit -> 'a) -> 'a
end

module Semaphore : sig
  type t

  val create : ?spin:int -> int -> t
  (** [create permits].  @raise Invalid_argument if negative. *)

  val acquire : t -> unit
  val try_acquire : t -> bool

  val release : t -> unit
  (** With parked acquirers the permit is handed to the oldest waiter
      and [available] is unchanged. *)

  val available : t -> int
  val with_acquire : t -> (unit -> 'a) -> 'a
end

module Rwlock : sig
  (** Writer-preferring on entry (readers park behind a queued writer),
      batch-waking on exit (a write release admits every parked reader
      in one CAS before the next writer) — so neither side starves. *)

  type t

  val create : ?spin:int -> unit -> t
  val acquire_read : t -> unit
  val try_acquire_read : t -> bool
  val release_read : t -> unit
  val acquire_write : t -> unit
  val try_acquire_write : t -> bool
  val release_write : t -> unit
  val with_read : t -> (unit -> 'a) -> 'a
  val with_write : t -> (unit -> 'a) -> 'a
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

module Barrier : sig
  type t

  val create : int -> t
  (** [create parties].  @raise Invalid_argument if [< 1]. *)

  val await : t -> unit
  (** Park until [parties] fibers have arrived; the last arrival swings
      the barrier to the next generation (reset + generation bump in
      one CAS) and wakes the rest, so the barrier is immediately
      reusable for the next phase. *)

  val parties : t -> int

  val phase : t -> int
  (** Completed generations so far. *)
end
