(** An original KC — a dedicated OS thread that runs its fiber's
    coupled sections and nothing else — and the pool a run leases KCs
    from.

    A KC is one job slot and the {!Parker} its thread sleeps on.
    {!Blt_rt.coupled} is the only submitter, and its fiber stays parked
    until its own section wakes it, so the slot never holds more than
    one section.  {!submit} stores the section, then unparks; the KC
    takes the slot, and parks only when it found it empty.  The KC
    sends its owed wake before each section and at exit; its park sends
    it after releasing the runtime lock.

    A fiber leases a KC on its first coupled section and keeps it until
    it finishes ({!Fiber.lease_kc}); then the KC goes straight back to
    the free list.  There is no size knob: the pool grows to the most
    coupling fibers alive at once.  One mutex guards the free list and
    the list of every KC, held for one push or pop.

    Depends only on [Atomic], [Mutex], [Parker] and [Thread]:
    [lib/check] recompiles it over a modelled parker and model-checks a
    submit and a shutdown racing the KC going to sleep, a completion
    wake owed across the park, and the pool's lease and recycle (the
    seeded [Check.Buggy_kc] twins must be caught). *)

type t

val start : unit -> t
(** A new KC, its thread started and idle. *)

val submit : t -> (unit -> unit) -> unit
(** Store a section in the KC's slot and wake the KC.  The section must
    not raise: {!Blt_rt.coupled} catches its section's exception
    itself.
    @raise Invalid_argument after {!shutdown}, or while a section is
    still pending. *)

val thread_id : t -> int
(** The OS thread id every section runs on. *)

val shutdown : t -> unit
(** Stop the KC and join its thread; a section still in the slot runs
    first.  Precondition: nothing can submit to the KC any more — a run
    shuts its KCs down only after its last worker has exited. *)

type 'kc pool

val pool : unit -> 'kc pool

val lease : 'kc pool -> create:(unit -> 'kc) -> 'kc
(** A free KC, or [create ()] (registered in {!all}) when none is free.
    A KC is never handed to two callers without a {!recycle} between. *)

val recycle : 'kc pool -> 'kc -> unit
(** Put [kc] back on the free list.  Call it once its owner has
    finished, i.e. after every coupled section the owner submitted has
    woken it: the KC took that last section off its slot before running
    it, so the next owner's first section lands in an empty slot. *)

val all : 'kc pool -> 'kc list
(** Every KC {!lease} ever created, free or leased (for shutdown). *)
