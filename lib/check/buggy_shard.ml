(* TEST-ONLY copy of Idle_waker -- the idle-worker stack behind the
   reactor's batched wake flush -- with a deliberately seeded
   bug: [take] is a get-then-set instead of a CAS retry loop.  It reads
   the list, computes the removal, then unconditionally stores it.

   Two interleavings go wrong, both the lost-wakeup shape the routed
   wake path must never exhibit:

   - The reactor's batch flush ([take wid] aimed at one worker)
     racing a generic [pop]: both read the same list, both believe they
     removed an id, and the loser's plain store RESURRECTS the id the
     winner removed -- that worker is now "idle" twice, and a later
     waker spends a wake token on a ghost while a genuinely parked
     worker sleeps on.

   - Two targeted wakes racing (the reactor's flush and a worker's
     [spawn_on]): both see [wid] present, both return [true],
     and two wake tokens are owed where the protocol promises exactly
     one.

   The faithful [Idle_waker.take] CASes the whole-list transition so a
   concurrent removal forces a retry and exactly one caller wins.
   test_check asserts the checker reports a bug on THIS module under
   those schedules while the faithful copy passes the same scenarios
   (and survives replay of the failing schedules).  Never use outside
   tests. *)

type t = int list Atomic.t

let create () = Atomic.make []

let rec push t wid =
  let cur = Atomic.get t in
  if not (Atomic.compare_and_set t cur (wid :: cur)) then push t wid

let take t wid =
  (* THE SEEDED BUG: the correct code CASes [cur -> cur \ wid] and
     retries on interference.  Read-then-store publishes a successor
     computed from a stale read: a concurrent pop/take in the window is
     silently undone. *)
  let cur = Atomic.get t in
  if List.mem wid cur then begin
    Atomic.set t (List.filter (fun w -> w <> wid) cur);
    true
  end
  else false

let rec pop t =
  match Atomic.get t with
  | [] -> None
  | wid :: rest as cur ->
      if Atomic.compare_and_set t cur rest then Some wid else pop t

let drain t = Atomic.exchange t []
let snapshot t = Atomic.get t
