(** The pool of a run's original KCs: lease on a fiber's first coupled
    section, push back when the fiber finishes.

    There is no size knob: the pool grows to the largest number of
    coupling fibers alive at once.  Lock-free (two Treiber stacks), and
    polymorphic in the KC so [lib/check] model-checks this exact code. *)

type 'kc t

val create : unit -> 'kc t

val lease : 'kc t -> create:(unit -> 'kc) -> 'kc
(** A free KC, or [create ()] (registered in {!all}) when none is free.
    A KC is never handed to two callers without a {!recycle} between. *)

val recycle : 'kc t -> 'kc -> unit
(** Put [kc] back on the free list.  Call it once its owner has
    finished, i.e. after every coupled section the owner queued on
    [kc] has woken it: the KC's FIFO mailbox then runs whatever the
    next owner queues behind the tail of that last section. *)

val all : 'kc t -> 'kc list
(** Every KC {!lease} ever created, free or leased (for shutdown). *)
