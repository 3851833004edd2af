(* TEST-ONLY twins of the [Sync] primitives, each with one deliberately
   seeded concurrency bug of the classic shape the faithful code is
   built to exclude.  test_check asserts the explorer reports a bug on
   THESE modules while the faithful copies pass the same scenarios and
   survive replay of the exact failing schedules.  Never use outside
   tests.

   The seeded shapes:

   - [Mutex.unlock]: get-then-set instead of a CAS retry.  A locker
     parking itself between the unlock's read and its plain store is
     wiped from the waiter list — parked forever while the mutex sits
     unlocked (lost wakeup -> deadlock).

   - [Condition.wait]: releases the mutex BEFORE publishing the waiter
     (the textbook lost-wakeup window).  A signaller that runs inside
     the gap finds no waiter, so the signal is dropped and the waiter
     parks forever even though the predicate it waits for is true. *)

type waiter = Fiber.Wake.token

let wake_waiter w = ignore (Fiber.Wake.fire_home w)

let split_last ws =
  let rec go acc = function
    | [] -> None
    | [ oldest ] -> Some (List.rev acc, oldest)
    | w :: tl -> go (w :: acc) tl
  in
  go [] ws

module Mutex = struct
  type state = Unlocked | Locked of waiter list

  type t = state Atomic.t

  let create () = Atomic.make Unlocked

  let try_lock m =
    match Atomic.get m with
    | Unlocked -> Atomic.compare_and_set m Unlocked (Locked [])
    | Locked _ -> false

  (* Faithful copy of [Sync.Mutex.lock]. *)
  let lock m =
    if not (try_lock m || Sync.retry (fun () -> try_lock m)) then
      Fiber.suspend_token (fun w ->
          let rec register () =
            match Atomic.get m with
            | Unlocked ->
                if Atomic.compare_and_set m Unlocked (Locked []) then
                  ignore (Fiber.Wake.fire w)
                else register ()
            | Locked ws as cur ->
                if not (Atomic.compare_and_set m cur (Locked (w :: ws))) then
                  register ()
          in
          register ())

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
  type t = waiter list Atomic.t

  let create () = Atomic.make []

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

  let rec signal t =
    let cur = Atomic.get t in
    match split_last cur with
    | None -> ()
    | Some (rest, oldest) ->
        if Atomic.compare_and_set t cur rest then wake_waiter oldest
        else signal t

  let broadcast t =
    let ws = Atomic.exchange t [] in
    List.iter wake_waiter (List.rev ws)
end
