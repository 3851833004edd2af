(** Lock-free one-shot completion cell with a payload: a single
    [Atomic.t] walking [Running -> Joiners ws -> Done v] by CAS.
    Fibers and {!Scope} use [unit t]; the payload is for callers that
    publish a result with the wake.
    [finish] snatches the joiner list with one exchange, so every
    registered wake runs exactly once, from the finisher or (on a lost
    CAS against [Done]) from the joiner itself.  Recompiled inside
    [lib/check] against traced atomics and model-checked there against
    the seeded get-then-set twin. *)

type 'a state = Running | Done of 'a | Joiners of (unit -> unit) list

type 'a t = 'a state Atomic.t

val create : unit -> 'a t

val is_done : 'a t -> bool

val status : 'a t -> 'a option
(** [Some v] once {!finish}[ v] has run; [None] before. *)

val add_joiner : 'a t -> (unit -> unit) -> unit
(** Run the wake function when {!finish} fires — immediately when the
    cell is already [Done].  Callable from any domain; each registered
    wake runs exactly once. *)

val finish : 'a t -> 'a -> unit
(** Publish [Done v] and wake every registered joiner.  Call once. *)
