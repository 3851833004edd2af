(* TEST-ONLY twin of Completion with a deliberately seeded bug: [finish]
   reads the joiner list with a plain [get] and then stores [Done v]
   with a plain [set], instead of snatching the list with one
   [exchange].  A joiner whose CAS lands BETWEEN the read and the store
   is silently overwritten -- its wake function never runs, so the
   joiner sleeps forever (a lost wake-up, observed by the checker as a
   deadlock).  On the cell behind [Fiber.join] and [Scope.await] that
   joiner is a parked fiber that never learns the fiber or scope it
   waits for finished.

   The twin is the lib/check copy of Completion with [finish] replaced.
   test_check asserts that the checker reports a bug on THIS module for
   the finish-vs-joiners race and for a parked joiner racing the
   finish, while the faithful copy passes the same scenarios.  Never
   use outside tests. *)

include Completion

let finish t v =
  (* THE SEEDED BUG: the correct code snatches the joiner list with
     [Atomic.exchange t (Done v)] in one atomic step.  Read-then-store
     opens a window for a joiner's CAS to register a wake that the
     store then discards. *)
  let seen = Atomic.get t in
  Atomic.set t (Done v);
  match seen with
  | Joiners ws -> List.iter (fun wake -> wake ()) ws
  | Running | Done _ -> ()
