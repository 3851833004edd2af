(** Blocking-style I/O for fibers on non-blocking fds.

    Each primitive tries the syscall first and parks only the calling
    fiber on the {!Reactor} when the kernel says would-block — worker
    domains never sleep in the kernel, so every other fiber keeps
    computing (the paper's decoupled-UC model on real sockets).

    All fds must be non-blocking ({!set_nonblock}; {!accept} marks
    accepted sockets itself).  [?deadline] is absolute wall-clock
    seconds ({!Reactor.now}); a lapsed deadline raises {!Timeout}.
    Fiber context only, except {!close}.

    A wait right after EAGAIN costs no syscall once the fd is
    registered with the reactor's epoll (at its first wait).  Close
    every fd a fiber has waited on with {!close}: a raw [Unix.close] of
    a waited fd is unsupported while any reactor lives, because the
    kernel drops the registration silently and reuses the number at
    once. *)

exception Timeout

val set_nonblock : Unix.file_descr -> unit

val read :
  Reactor.t -> ?deadline:float -> Unix.file_descr -> bytes -> int -> int -> int
(** Like [Unix.read]: at least one byte unless EOF (0). *)

val read_exact :
  Reactor.t -> ?deadline:float -> Unix.file_descr -> bytes -> int -> int -> unit
(** Exactly [len] bytes.  @raise End_of_file on a short stream. *)

val write_once :
  Reactor.t -> ?deadline:float -> Unix.file_descr -> bytes -> int -> int -> int

val write_all :
  Reactor.t -> ?deadline:float -> Unix.file_descr -> bytes -> int -> int -> unit

val accept :
  Reactor.t ->
  ?deadline:float ->
  Unix.file_descr ->
  Unix.file_descr * Unix.sockaddr
(** The accepted socket comes back non-blocking and close-on-exec. *)

val connect : Reactor.t -> ?deadline:float -> Unix.file_descr -> Unix.sockaddr -> unit
(** Non-blocking connect: parks through EINPROGRESS, then surfaces
    [SO_ERROR] as a [Unix.Unix_error] if the connect failed. *)

val wait : Reactor.t -> ?deadline:float -> Unix.file_descr -> Reactor.dir -> unit
(** Bare readiness wait ({!Reactor.await_fd}: level-triggered, one
    epoll_ctl).  @raise Timeout when the deadline lapses. *)

val close : Unix.file_descr -> unit
(** Retire the fd in every live reactor ({!Reactor.forget}), then
    [Unix.close] it.  Callable from any thread. *)

val resolve : ?service:string -> string -> Unix.sockaddr list
(** getaddrinfo (TCP results only).  It has no non-blocking form, so it
    runs coupled to the calling fiber's original KC
    ({!Fiber_rt.Blt_rt.coupled}): always the same OS thread, preserving
    the paper's system-call consistency even after the fiber migrated
    between domains. *)
