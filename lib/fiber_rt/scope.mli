(** Structured concurrency: a nursery owning every fiber spawned into
    it.  {!run} returns only after the body and all children exit; the
    first real failure cancels the rest of the tree and re-raises at
    the scope edge, so no fiber outlives its scope and no error is
    dropped.

    Cancellation is cooperative: {!cancel} (or any failure) sets a
    sticky flag that children poll with {!check}, raising {!Cancelled}
    — which the scope edge absorbs.  Only non-[Cancelled] exceptions
    propagate out of {!run}.  No timer cancels a scope: a deadline
    bounds a single wait ([?deadline] on the [lib/net] reactor's
    waits), and the waiting fiber decides whether to {!cancel}. *)

exception Cancelled

type t

val run : (t -> 'a) -> 'a
(** Run [body] with a fresh scope, then wait for every child spawned
    into it.  If a child or the body raised a non-{!Cancelled}
    exception, the first such failure is re-raised here (after all
    children exited); a cancelled scope whose body still returned [v]
    returns [v].  Must be called from a fiber. *)

val spawn : ?worker:int -> t -> (unit -> unit) -> unit
(** Spawn a child fiber owned by the scope ([worker] as in
    {!Fiber.spawn_on}).  A child exception is recorded via {!fail} —
    first one wins — and cancels the scope.
    @raise Invalid_argument if the scope already exited. *)

val cancel : t -> unit
(** Ask every fiber in the scope to stop, quietly: children observe it
    via {!check} / {!is_cancelled}; no failure is recorded. *)

val fail : t -> exn -> unit
(** Record [exn] as the scope's failure (first caller wins) and cancel.
    [Cancelled] itself is never recorded, only the cancel side runs. *)

val check : t -> unit
(** Cooperative cancellation point: @raise Cancelled if cancelled. *)

val is_cancelled : t -> bool
val failure : t -> exn option

val live : t -> int
(** Body + children still running (1 = body only, 0 = scope done). *)

(** {1 Protocol internals}

    The CAS protocol {!run}/{!spawn} is sugar over — exposed for the
    interleaving checker (lib/check drives these from racing simulated
    threads) and for embedding the scope lifecycle elsewhere. *)

val create : unit -> t
(** A scope with [live = 1]: the creator holds the body slot and must
    eventually {!await} (which releases it). *)

val enter : t -> unit
(** Claim a child slot before starting the child.
    @raise Invalid_argument if the scope already exited. *)

val leave : t -> unit
(** Release a slot; the 1 -> 0 crossing completes the scope and wakes
    the awaiter, exactly once. *)

val await : t -> unit
(** Release the body slot, then park until [live] reaches 0. *)
