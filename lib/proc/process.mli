(** User-level processes on the fiber runtime: the paper's process —
    private fd table, virtual PID, exit status, signal state — as a
    {!Fiber_rt.Scope}-rooted fiber tree inside the shared address
    space.  The production (S3) twin of the S1 simulator in
    [lib/core/ulp.ml]; see DESIGN.md §5h for the anatomy.

    All spawning/waiting entry points require fiber context
    ({!Fiber_rt.Fiber.run_parallel}, or {!Fiber_rt.Fiber.run} for one
    worker); {!boot}, {!kill} and the accessors run anywhere.  Cancellation (signals included) is
    cooperative: ULP code observes it at {!check}. *)

exception Proc_exit of int
(** Raised by {!exit} in whatever fiber calls it; terminates the whole
    ULP with that code (first failure wins). *)

exception Killed of int
(** The default signal disposition, recorded as the ULP's Scope
    failure; the status becomes [Signaled signum]. *)

type status =
  | Exited of int  (** normal return / {!exit} / uncaught exn (125) *)
  | Signaled of int  (** terminated by a signal's default disposition *)

type t
(** One user-level process (ULP). *)

type world
(** One shared address space: the process tree (the vpid table, every
    ULP's parent, children and exit status, under one lock) and the
    root ULP. *)

(** {1 Conventional signal numbers} *)

val sigint : int

val sigkill : int
(** Uncatchable: {!on_signal} rejects it. *)

val sigusr1 : int
val sigusr2 : int
val sigterm : int
val max_signal : int

(** {1 Lifecycle} *)

val boot : unit -> world
(** A fresh world whose only inhabitant is the root ULP (vpid 1) —
    the init process: orphans are re-parented to it and auto-reaped.
    Each ULP's fd table holds up to 256 descriptors. *)

val root : world -> t

val spawn : parent:t -> (t -> unit) -> t
(** Create a ULP as [parent]'s child and start its root fiber.  The
    body's fiber tree (grow it with {!spawn_fiber}) runs inside the
    ULP's own Scope; when every fiber of the tree has exited the ULP
    closes its fd table, publishes its {!status} and becomes a zombie
    until the parent {!waitpid}s it (or, if orphaned, reaps itself).
    Fiber context.
    @raise Invalid_argument when [parent] has exited: it already handed
    its children to the root, and a child linked under it now could
    never be reaped. *)

val spawn_fiber : ?worker:int -> t -> (unit -> unit) -> unit
(** Spawn a fiber into the ULP's tree: its uncaught exceptions (and
    {!exit}) terminate the ULP through first-failure-wins
    cancellation. *)

val exit : t -> int -> 'a
(** Terminate the calling ULP with [code] (raises {!Proc_exit}; every
    other fiber of the tree is cancelled). *)

val getpid : t -> int
val getppid : t -> int
(** 0 for the root; re-written to the root's vpid when orphaned. *)

val children : t -> int list
(** vpids of live + zombie (unreaped) children, in no particular
    order; a snapshot taken under the tree lock. *)

val status_of : t -> status option
(** [None] while running, the exit status once the tree exited —
    readable even before the zombie is reaped. *)

(** {1 Wait semantics} *)

val try_waitpid :
  parent:t -> vpid:int -> (status option, [ `Echild ]) result
(** WNOHANG: [Ok None] while the child runs, [Ok (Some st)] claiming
    and reaping the zombie, [`Echild] when [vpid] is not an unreaped
    child of [parent]. *)

val waitpid : parent:t -> vpid:int -> (status, [ `Echild ]) result
(** Block — parking the calling {e fiber}, never the domain — until the
    child exits, then claim and reap it.  Racing waiters for the same
    child are all woken; exactly one claims the status, the rest get
    [`Echild].  Fiber context. *)

(** {1 Signals} *)

val kill : world -> vpid:int -> int -> (unit, [ `Esrch ]) result
(** Post [signum] to a ULP: the pending bit is set always; with no
    handler installed the default disposition terminates the target's
    fiber tree (first-failure-wins cancellation, status
    [Signaled signum]).  [`Esrch] when no such vpid survives.
    @raise Invalid_argument for signal numbers outside [1..31]. *)

val on_signal : t -> signum:int -> (int -> unit) option -> unit
(** Install ([Some h]) or reset ([None]) the ULP's handler; handlers
    run at the target's next {!check}, in whichever of its fibers
    checks first.  @raise Invalid_argument for SIGKILL. *)

val check : t -> unit
(** Cancellation point: deliver pending handled signals, then
    {!Fiber_rt.Scope.check} (raises [Cancelled] when the ULP is being
    terminated). *)

val pending : t -> int
(** The pending-signal bitmask (bit [1 lsl signum]); for tests. *)

(** {1 Introspection & plumbing} *)

val world : t -> world
val find : world -> int -> t option
val live_procs : world -> int
(** Table population: live + unreaped zombies. *)

val fds : t -> Unix.file_descr Fd_core.table
(** The ULP's private descriptor table ({!Proc_io} resolves through
    it). *)

val scope : t -> Fiber_rt.Scope.t
(** The ULP's fiber-tree Scope; a fatal signal fails it, cancelling
    the tree. *)
