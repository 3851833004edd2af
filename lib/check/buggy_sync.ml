(* TEST-ONLY twins of the [Sync] primitives, each with one deliberately
   seeded concurrency bug of the classic shape the faithful code is
   built to exclude.  test_check asserts the explorer reports a bug on
   THESE modules while the faithful copies pass the same scenarios and
   survive replay of the exact failing schedules.  Never use outside
   tests.

   The twins are the lib/check copy of Sync with one function replaced
   in each module; whatever is not replaced ([Mutex.lock],
   [Mutex.with_lock], [Condition.signal], ...) is the faithful code.
   The seeded shapes:

   - [Mutex.unlock]: get-then-set instead of a CAS retry.  A locker
     parking itself between the unlock's read and its plain store is
     wiped from the waiter list — parked forever while the mutex sits
     unlocked (lost wakeup -> deadlock).

   - [Condition.wait]: releases the mutex BEFORE publishing the waiter
     (the textbook lost-wakeup window).  A signaller that runs inside
     the gap finds no waiter, so the signal is dropped and the waiter
     parks forever even though the predicate it waits for is true. *)

include Sync

module Mutex = struct
  include Sync.Mutex

  let unlock m =
    match Atomic.get m with
    | Unlocked -> invalid_arg "Buggy_sync.Mutex.unlock: not locked"
    | Locked ws -> (
        (* THE SEEDED BUG: plain stores computed from a stale read.  A
           waiter enqueued since the [Atomic.get] is silently erased. *)
        match split_last ws with
        | None -> Atomic.set m Unlocked
        | Some (rest, oldest) ->
            Atomic.set m (Locked rest);
            wake_waiter oldest)
end

module Condition = struct
  (* Pairs with the faithful [Sync.Mutex] — the seeded bug is purely in
     the wait protocol's ordering. *)
  include Sync.Condition

  let wait t m =
    (* THE SEEDED BUG: unlock first, publish the waiter second.  The
       faithful [Sync.Condition.wait] enqueues inside the suspend
       registration and only then unlocks, so a signaller can never run
       in a gap where the waiter is invisible. *)
    Sync.Mutex.unlock m;
    Fiber.suspend_token (fun w ->
        let rec register () =
          let cur = Atomic.get t in
          if not (Atomic.compare_and_set t cur (w :: cur)) then register ()
        in
        register ());
    Sync.Mutex.lock m
end
