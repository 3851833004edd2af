(* TEST-ONLY twin of [Scope] with one deliberately seeded bug: [leave]
   decrements the live count with a get-then-set instead of the
   faithful fetch_and_add.  Two children exiting concurrently can both
   read [live = 2] and both store [1]: one exit is lost, the count
   never reaches 0, [done_] never fires, and the parent parked in
   [await] sleeps forever.  test_check asserts the explorer finds that
   schedule here while the faithful copy passes it.  Never use outside
   tests.

   The twin is the lib/check copy of Scope with [leave] replaced, and
   [await] restated only because it calls [leave]; [spawn] and [run]
   keep the faithful [leave]. *)

include Scope

let leave t =
  (* THE SEEDED BUG: the faithful [Scope.leave] is
     [fetch_and_add live (-1) = 1] — one atomic step, so exactly one
     caller observes the 1 -> 0 crossing.  Read-then-store lets two
     concurrent leavers both compute from the same stale read. *)
  let v = Atomic.get t.live in
  Atomic.set t.live (v - 1);
  if v - 1 = 0 then Completion.finish t.done_ ()

let await t =
  leave t;
  if not (Completion.is_done t.done_) then
    Fiber.suspend_token (fun tok ->
        Completion.add_joiner t.done_ (fun () -> ignore (Fiber.Wake.fire tok)))
