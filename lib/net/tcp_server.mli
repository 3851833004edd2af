(** TCP serving on the fiber runtime: one listening socket served by
    one accept-loop fiber, spawning one fiber per connection, spread
    across the worker domains by a lock-free round-robin distributor
    ({!Fiber_rt.Fiber.spawn_on}).  Bounded concurrency with real
    backpressure (at [max_conns] the accept loop waits on a
    {!Fiber_rt.Sync.Condition} until a connection retires, letting the
    kernel backlog throttle clients), graceful drain on {!stop}, and
    built-in counters.  One {!Fiber_rt.Sync.Mutex} guards the slot
    count; the counters are atomics any thread may read.

    All entry points except {!stats}/{!port}/{!active} must run inside
    the fiber runtime ({!start} spawns fibers; {!stop} joins and
    parks). *)

type t

type conn = {
  fd : Unix.file_descr;
  peer : Unix.sockaddr;
  mutable detached : bool;  (** set via {!detach}; read by the server *)
}
(** The handler's view of one accepted connection.  The fd is
    non-blocking; the server closes it when the handler returns (or
    raises) unless the handler called {!detach}. *)

val detach : conn -> unit
(** Take ownership of the connection's fd: the server will not close it
    when the handler returns.  Call this {e before} handing the fd to
    another owner — e.g. {!Proc.Io.adopt} into a per-connection ULP's
    private table, whose refcount then controls the close — so there is
    never a moment with two parties believing they own the fd. *)

type stats = {
  accepted : int;
  active : int;
  max_active : int;  (** high-water concurrent connections *)
  completed : int;
  failed : int;  (** handlers that raised *)
  accept_retries : int;  (** times the accept loop waited at capacity *)
}

val start :
  reactor:Reactor.t ->
  ?backlog:int ->
  ?max_conns:int ->
  addr:Unix.sockaddr ->
  handler:(Reactor.t -> conn -> unit) ->
  unit ->
  t
(** Bind, listen and spawn the accept loop (so: fiber context).
    [backlog] defaults to 128, [max_conns] to unlimited.  The handler
    runs
    in the connection's own fiber — placed on a worker chosen
    round-robin — and may park freely ({!Fiber_io}); its exceptions are
    counted, never propagated. *)

val stop : t -> unit
(** Graceful drain: stop accepting, free an accept loop waiting at
    capacity, then park until every active connection retires.
    Idempotent; fiber context. *)

val port : t -> int
(** The bound port — useful after binding port 0. *)

val stats : t -> stats
val active : t -> int
