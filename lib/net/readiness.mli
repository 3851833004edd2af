(** A one-waiter wake cell: a lock-free CAS state machine ([Idle] /
    [Ready] / [Waiting]) that makes the register-vs-post race safe —
    whichever of a fiber's {!await} and a poster's {!post} lands first,
    the waiter runs exactly once, and a post with nobody waiting is
    remembered rather than lost.

    [lib/net] does not use it.  It is kept only for perfbench, whose
    [ulp_jobs] arrival clock posts a cell from a domain of its own; it
    goes once that clock stops calling it.

    Depends only on [Atomic]: recompiled inside [lib/check] against the
    traced shims and model-checked there (the seeded get-then-set
    [Check.Buggy_reactor.post] loses a wakeup; the checker must catch
    it while this version survives the same schedules). *)

type state =
  | Idle  (** nobody waiting, nothing posted *)
  | Ready  (** posted with nobody waiting; memo for the next await *)
  | Waiting of (unit -> unit)  (** one registered waiter *)

type t = state Atomic.t

val create : unit -> t

val await : t -> (unit -> unit) -> [ `Registered | `Was_ready ]
(** Register [waiter] for the next {!post}.  [`Was_ready] means a post
    already happened: the memo was consumed and [waiter] ran in this
    call.  [waiter] must be callable from any OS thread and absorb
    duplicate calls (a {!Fiber_rt.Fiber.Wake} token underneath).  At
    most one waiter per cell.
    @raise Invalid_argument if a waiter is already registered. *)

val post : t -> [ `Woke | `Memo | `Already ]
(** Report one readiness edge: run the registered waiter ([`Woke]),
    or remember the edge for the next {!await} ([`Memo]); [`Already]
    if an unconsumed memo is pending.  Callable from any thread. *)

val clear : t -> unit
(** Return the cell to [Idle], dropping a dead registration or a stale
    memo (used when a wait is abandoned, e.g. lost to a timeout). *)
