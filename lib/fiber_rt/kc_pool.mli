(** The pool of a run's original KCs: lease on a fiber's first coupled
    section, recycle as the fiber's last job on its KC.

    There is no size knob: the pool grows to the largest number of
    coupling fibers alive at once.  Lock-free (two Treiber stacks), and
    polymorphic in the KC so [lib/check] model-checks this exact code. *)

type 'kc t

val create : unit -> 'kc t

val lease : 'kc t -> create:(unit -> 'kc) -> 'kc
(** A free KC, or [create ()] (registered in {!all}) when none is free.
    A KC is never handed to two callers without a {!recycle} between. *)

val recycle :
  'kc t ->
  reset_if_idle:('kc -> bool) ->
  submit:('kc -> (unit -> unit) -> unit) ->
  reset:('kc -> unit) ->
  'kc ->
  unit
(** Give [kc] back once its owner has finished.  If [reset_if_idle kc]
    (no job queued or running; the reset done atomically with that
    check) it returns to the free list at once.  Otherwise [submit]
    queues one last job on [kc] that runs [reset kc] and then returns
    it.  Either way, because the KC runs its jobs in FIFO order, every
    job the old owner queued has run before the next lease takes it. *)

val all : 'kc t -> 'kc list
(** Every KC {!lease} ever created, free or leased (for shutdown). *)
