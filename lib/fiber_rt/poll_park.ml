(* The park-in-poller handshake, factored out of [Fiber] so the exact
   production code can be recompiled against lib/check's traced atomics
   and model-checked.

   A worker with nothing to run parks.  When its run is bound to a
   reactor and nobody else is polling, it takes the reactor's [turn] and
   waits in the poller itself (Go's netpoller, Tokio's driver park)
   instead of on its parker, so a readiness report wakes the fiber's
   worker directly, with no second thread in between.

   Two races must not lose a wakeup:

   - A waker vs a worker entering the poller.  The waker publishes the
     worker's [token], then reads [in_poller] and pokes the poller when
     it is set.  The parker publishes [in_poller], then its turn drains
     old pokes and re-reads [token] as its last check before it blocks.
     One side always sees the other (Dekker): either the parker finds
     the token and does not block, or the waker finds the flag and its
     poke ends the wait.  A parker that published the flag after that
     re-check could block with a token pending and nobody poking.

   - A turn holder leaving while watches or timers remain, with a peer
     parked on its parker: nobody would poll them.  [leave] frees the
     turn, then reads [pending]; a peer's failed [try_hold] comes after
     the watch it armed, so whichever frees the turn last sees that
     watch and hands the turn on by waking a parked peer, which takes it
     when it parks again.

   The turn word counts: even is free, odd is held, and every hold adds
   two.  A busy worker reads it at its fairness tick and takes a
   non-blocking turn only when nobody has held one since its last look
   ([quiet]).  [close] holds it for good (-1 is odd). *)

type slot = {
  token : bool Atomic.t; (* a wake is owed to the worker *)
  in_poller : bool Atomic.t; (* the worker waits in the poller *)
}

let slot () = { token = Atomic.make false; in_poller = Atomic.make false }

(* Waker side: publish the token, then interrupt the poller if the
   worker waits in it. *)
let post s ~poke =
  Atomic.set s.token true;
  if Atomic.get s.in_poller then poke ()

(* Consume an owed token: [true] iff one was pending. *)
let take_token s = Atomic.get s.token && Atomic.exchange s.token false

(* Parker side, holding the turn: publish the flag, then run the turn,
   which re-reads the token after it has drained old pokes and blocks
   only when none is owed. *)
let poll s turn =
  Atomic.set s.in_poller true;
  turn ~block:(fun () -> not (Atomic.get s.token));
  Atomic.set s.in_poller false

type turn = int Atomic.t

let turn () = Atomic.make 0

let try_hold t =
  let v = Atomic.get t in
  v land 1 = 0 && Atomic.compare_and_set t v (v + 1)

let seen t = Atomic.get t

(* No hold since [seen] (a value read earlier) and the turn is free. *)
let quiet t seen = seen land 1 = 0 && Atomic.get t = seen

let leave t ~pending ~hand_off =
  Atomic.incr t;
  if pending () then hand_off ()

(* Hold the turn for good, nudging the current holder out of its wait;
   later [try_hold]s fail. *)
let rec close t ~poke =
  let v = Atomic.get t in
  if v = -1 then ()
  else if v land 1 = 0 && Atomic.compare_and_set t v (-1) then ()
  else begin
    poke ();
    (* the holder may share our domain: let it run *)
    Thread.yield ();
    close t ~poke
  end
