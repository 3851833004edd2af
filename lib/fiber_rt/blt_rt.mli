(** The bi-level thread API on the real fiber runtime.

    A fiber normally runs decoupled on a worker domain of the fiber
    engine (the calling domain alone under {!Fiber.run});
    {!coupled} ships a section to
    the fiber's own executor thread (its original KC) and suspends the
    fiber meanwhile — the scheduler keeps running every other fiber.
    Because each fiber always couples to the {e same} OS thread, even
    after migrating between domains, thread-keyed kernel state and
    blocking syscalls behave exactly as on a plain kernel thread:
    system-call consistency, for real.

    Original KCs are recycled, not created per fiber: the first
    {!coupled} leases a KC from the run's pool ({!Fiber.lease_kc}), the
    fiber holds it for the rest of its life, and the KC goes back to
    the pool when the fiber finishes.  A run therefore keeps about as
    many KC threads as it has coupling fibers alive at once, not one per
    fiber it ever ran.  {!coupled} is the only way to run code on a KC.

    Caveat: the pool resets nothing on a recycled KC.  Thread-keyed OS
    state a previous owner set inside a coupled section — a signal mask
    set with [Thread.sigmask], say — is still in force for the next
    owner.  A section that changes such state must restore it before it
    returns.  Nothing in this library sets any. *)

exception Coupled_raised of exn
(** Wraps an exception raised inside a coupled section. *)

val coupled : (unit -> 'a) -> 'a
(** Run [f] coupled to this fiber's original KC; other fibers keep
    running meanwhile.  @raise Coupled_raised if [f] raises. *)

val original_kc_thread_id : unit -> int
(** The OS thread id of this fiber's original KC (stable across
    {!coupled} calls — the consistency property, preserved even when
    the runnable half of the fiber migrates between domains). *)

val coupled_syscall : (unit -> 'a) -> 'a
(** Alias of {!coupled}, named for its intended use. *)

val sleep : float -> unit
(** Sleep on the original KC; other fibers keep running meanwhile. *)
