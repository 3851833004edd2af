(** Bounded FIFO channels for fibers: the communication primitive
    pipelines are built from.  Domain-safe: the endpoints may sit on
    different worker domains of {!Fiber.run_parallel}; under
    {!Fiber.run} (one worker) the lock is uncontended. *)

exception Closed

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Default capacity 1 (rendezvous-ish).
    @raise Invalid_argument on capacity < 1. *)

val length : 'a t -> int

val send : 'a t -> 'a -> unit
(** Suspends while full.  @raise Closed if the channel is closed. *)

val recv : 'a t -> 'a option
(** Suspends while empty; [None] once closed and drained. *)

val close : 'a t -> unit

val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
(** Consume until the channel closes. *)

val iter : 'a t -> f:('a -> unit) -> unit
