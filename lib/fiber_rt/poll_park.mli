(** The park-in-poller handshake of {!Fiber}: a worker with nothing to
    run waits in its run's poller when it holds the reactor's turn.
    Depends only on [Atomic]: [lib/check] recompiles it against traced
    shims and model-checks a waker against a worker entering the poller
    and the turn hand-off (the seeded [Check.Buggy_poll_park] twins must
    be caught). *)

type slot
(** One worker's parking state: an owed wake token and whether the
    worker waits in the poller. *)

val slot : unit -> slot

val post : slot -> poke:(unit -> unit) -> unit
(** Owe the worker a wake: publish the token, then call [poke] iff the
    worker waits in the poller. *)

val take_token : slot -> bool
(** Consume the owed token; [true] iff one was pending. *)

val poll : slot -> (block:(unit -> bool) -> unit) -> unit
(** [poll s turn] runs one turn in the poller: it publishes that the
    worker waits there, then calls [turn].  [turn] must drain earlier
    pokes before it evaluates [block ()], and may block only when that
    returns [true] (no token owed). *)

type turn
(** Who may wait in one reactor's poller.  Counts the holds. *)

val turn : unit -> turn

val try_hold : turn -> bool
(** Take the turn if it is free. *)

val quiet : turn -> int -> bool
(** [quiet t seen]: the turn is free and nobody has held it since
    {!seen} returned [seen]. *)

val seen : turn -> int
(** The turn's current count, for a later {!quiet}. *)

val leave : turn -> pending:(unit -> bool) -> hand_off:(unit -> unit) -> unit
(** Free the turn, then call [hand_off] iff [pending ()]: watches or
    timers remain and a parked peer must take the turn. *)

val close : turn -> poke:(unit -> unit) -> unit
(** Hold the turn for good, poking the current holder out of its wait
    until it leaves.  Later {!try_hold}s fail. *)
