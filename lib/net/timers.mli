(** The reactor's deadlines: a binary min-heap ({!Sim.Event_heap})
    keyed by (absolute wall-clock deadline, insertion number).

    The heap is single-threaded (a reactor shard owns it); only a
    timer's state cell is atomic, so {!cancel} and {!fire} may race the
    shard's own fire from any thread — the [Pending -> Fired |
    Cancelled] CAS guarantees exactly one of \{advance, fire, cancel\}
    wins, which is what makes a timeout racing completing I/O resolve
    to one verdict.  Cancelled timers stay in the heap until they reach
    its head, where they are popped unfired. *)

type t
type timer

val create : unit -> t

val make : at:float -> (unit -> unit) -> timer
(** A detached pending timer — buildable (and cancellable) by any
    thread before {!add} hands it to the heap's owner.  [at] is
    absolute wall-clock seconds; a past deadline fires on the next
    {!advance}. *)

val add : t -> timer -> unit
(** Insert a timer built with {!make}.  Owner thread only. *)

val cancel : timer -> bool
(** [true] iff the timer was still pending: its action will never run.
    [false] once fired (or already cancelled) — the cancel-after-fire
    case callers must handle.  Any thread. *)

val fire : timer -> bool
(** Resolve a timer now, without the heap: runs the action on the
    calling thread iff the timer was still pending (the same CAS as
    {!advance}).  Any thread; the reactor's shutdown path uses it for
    timers that never reached a heap. *)

val advance : t -> now:float -> int
(** Fire every pending timer with [at <= now], in (deadline, insertion)
    order, on the calling (owner) thread.  Returns the number fired. *)

val next_due : t -> float option
(** The earliest pending deadline, [None] when nothing is pending.
    Cancelled or fired heads are popped first, so a cancelled timer
    never causes an early wake.  Owner thread only. *)

val fire_all : t -> int
(** Shutdown sweep: run every still-pending action regardless of
    deadline, in (deadline, insertion) order; empties the heap.  Owner
    thread only.  Safe only for actions that re-check their own verdict
    (the reactor's all do). *)
