(** Lock-free multi-producer queue: push from any OS thread or domain;
    [pop_all] takes the whole pending batch in FIFO order with a single
    atomic exchange (safe even with several consumers).  Each worker of
    the fiber engine owns one as its inbox, the cross-thread delivery
    path of the scheduler. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> 'a -> unit

val pop_all : 'a t -> 'a list
(** The pending batch, oldest first; empties the queue. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Snapshot; O(n). *)
