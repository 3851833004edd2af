(* The per-fd wait cell of the reactor: the lock-free handshake between
   a fiber registering interest in readiness and the reactor's turn
   holder posting it.  One CAS-driven state machine

       Idle --await--> Waiting w --post--> Idle   (w runs: the wake)
       Idle --post--> Ready --await--> Idle       (memo consumed: no park)

   makes the register-readiness-vs-wake race safe in every
   interleaving: whichever side's CAS lands first, the waiter runs
   exactly once.  A post with nobody waiting is remembered (Ready), so
   a readiness edge can never slip between the fiber's "not ready yet"
   check and its registration -- the classic lost-wakeup of hand-rolled
   event loops (seeded in [Check.Buggy_reactor], where [post] is a
   get-then-set; the interleaving checker catches it as a deadlock).

   This module must stay dependency-free (only [Atomic]): it is
   recompiled inside lib/check against the traced atomics and
   model-checked there. *)

type state =
  | Idle  (** nobody waiting, nothing posted *)
  | Ready  (** posted with nobody waiting; memo for the next await *)
  | Waiting of (unit -> unit)  (** one registered waiter *)

type t = state Atomic.t

let create () = Atomic.make Idle

(* Fiber side.  [waiter] must be safe to call from any OS thread and
   idempotent against competing wakers (a Fiber.Wake token underneath). *)
let rec await t waiter =
  match Atomic.get t with
  | Idle ->
      if Atomic.compare_and_set t Idle (Waiting waiter) then `Registered
      else await t waiter
  | Ready ->
      if Atomic.compare_and_set t Ready Idle then begin
        waiter ();
        `Was_ready
      end
      else await t waiter
  | Waiting _ -> invalid_arg "Readiness.await: cell already has a waiter"

(* Reactor side: report one readiness edge. *)
let rec post t =
  match Atomic.get t with
  | Waiting w as cur ->
      if Atomic.compare_and_set t cur Idle then begin
        w ();
        `Woke
      end
      else post t
  | Idle ->
      if Atomic.compare_and_set t Idle Ready then `Memo else post t
  | Ready -> `Already

(* Drop a dead registration (the waiter lost a wake race and the fiber
   moved on): returns the cell to Idle unless a concurrent post already
   did.  Clearing a Ready memo is deliberate -- the readiness edge was
   for the abandoned wait. *)
let rec clear t =
  match Atomic.get t with
  | Idle -> ()
  | (Ready | Waiting _) as cur ->
      if not (Atomic.compare_and_set t cur Idle) then clear t
