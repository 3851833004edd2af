(** I/O through a ULP's private descriptor table: every operation names
    a {e virtual} descriptor in the calling ULP's namespace, resolved
    to the host fd at call time and pinned (one refcount reference) for
    the duration of the syscall — a concurrent close never yanks the fd
    mid-operation.  The syscalls themselves are {!Fiber_io}'s
    try-then-park on the reactor; bad descriptors surface as
    [Unix.Unix_error (EBADF, ...)], full tables as [EMFILE], and a
    descriptor bound into a ULP that has exited as [ESRCH].

    Creation/destruction of host fds lives HERE and in the table's
    destroy callback only — the [raw-fd-in-proc] lint rule enforces
    that everywhere else under [lib/proc]. *)

val adopt : ?nonblock:bool -> Process.t -> Unix.file_descr -> int
(** Import a host fd the caller owns into the ULP's table (ownership
    transfers; on EMFILE, or ESRCH when the ULP has exited, the fd is
    closed, then the error raised).
    [nonblock] (default true) marks it O_NONBLOCK — required for the
    parking I/O below; pass [false] for regular files. *)

val openfile : Process.t -> string -> Unix.open_flag list -> int -> int
val socket :
  Process.t -> Unix.socket_domain -> Unix.socket_type -> int -> int

val pipe : Process.t -> int * int
(** (read end, write end), both non-blocking, both in the table. *)

val close : Process.t -> int -> unit
val dup : Process.t -> int -> int

val dup2 : Process.t -> src:int -> dst:int -> unit
(** An open [dst] is displaced and released exactly once (POSIX
    semantics; see {!Fd_core.dup2}). *)

val share : Process.t -> int -> into:Process.t -> int
(** Bind the SAME host fd into another ULP's namespace (refcount +1):
    the returned descriptor is [into]'s name for it; each ULP closes
    its own name and the host fd dies with the last one.  ESRCH when
    [into] has exited: its table is closed for good and the reference
    is dropped again. *)

(** {1 Parking I/O} ([deadline] as in {!Fiber_io}; fiber context) *)

val read :
  Net.Reactor.t -> Process.t -> ?deadline:float -> int -> bytes -> int -> int -> int

val read_exact :
  Net.Reactor.t -> Process.t -> ?deadline:float -> int -> bytes -> int -> int -> unit

val write_once :
  Net.Reactor.t -> Process.t -> ?deadline:float -> int -> bytes -> int -> int -> int

val write_all :
  Net.Reactor.t -> Process.t -> ?deadline:float -> int -> bytes -> int -> int -> unit

val accept :
  Net.Reactor.t -> Process.t -> ?deadline:float -> int -> int * Unix.sockaddr
(** The accepted socket is adopted into the SAME ULP's table; use
    {!share} (or hand the vfd to a child via {!share}) to give it to a
    per-connection ULP. *)

val connect :
  Net.Reactor.t -> Process.t -> ?deadline:float -> int -> Unix.sockaddr -> unit

val wait :
  Net.Reactor.t -> Process.t -> ?deadline:float -> int -> Net.Reactor.dir -> unit
