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

   - [Semaphore.release]: same get-then-set.  An acquirer that CASes
     itself into the wait queue inside the window is erased by the
     release's stale store; the permit is added but nobody is woken.

   - [Condition.wait]: releases the mutex BEFORE publishing the waiter
     (the textbook lost-wakeup window).  A signaller that runs inside
     the gap finds no waiter, so the signal is dropped and the waiter
     parks forever even though the predicate it waits for is true.

   - [Barrier]: the arrival count, waiter list and generation live in
     SEPARATE atomics instead of one CAS-swung cell, and the releasing
     arrival wakes the waiters before resetting the count.  A woken
     fiber re-entering the barrier has its arrival wiped by the late
     reset (the barrier-generation bug); a parker can also be released
     past before its waiter is published.

   - [Rwlock.release_write]: wakes only the oldest parked reader
     instead of the whole batch.  The stragglers wait for a wake that
     no future release owes them: reader starvation that hardens into
     deadlock. *)

type waiter = { wtok : Fiber.Wake.token; whome : int option }

let wake_waiter w = ignore (Fiber.Wake.fire_to ?worker:w.whome w.wtok)

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
      Fiber.suspend_token (fun tok ->
          let w = { wtok = tok; whome = Fiber.worker_index () } in
          let rec register () =
            match Atomic.get m with
            | Unlocked ->
                if Atomic.compare_and_set m Unlocked (Locked []) then
                  ignore (Fiber.Wake.fire tok)
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

module Semaphore = struct
  type state = { avail : int; sq : waiter list }

  type t = state Atomic.t

  let create permits = Atomic.make { avail = permits; sq = [] }

  let try_acquire t =
    let cur = Atomic.get t in
    cur.avail > 0
    && Atomic.compare_and_set t cur { cur with avail = cur.avail - 1 }

  (* Faithful copy of [Sync.Semaphore.acquire]. *)
  let acquire t =
    if not (try_acquire t || Sync.retry (fun () -> try_acquire t)) then
      Fiber.suspend_token (fun tok ->
          let w = { wtok = tok; whome = Fiber.worker_index () } in
          let rec register () =
            let cur = Atomic.get t in
            if cur.avail > 0 then begin
              if
                Atomic.compare_and_set t cur
                  { cur with avail = cur.avail - 1 }
              then ignore (Fiber.Wake.fire tok)
              else register ()
            end
            else if
              not (Atomic.compare_and_set t cur { cur with sq = w :: cur.sq })
            then register ()
          in
          register ())

  let release t =
    (* THE SEEDED BUG: get-then-set.  An acquirer registering in the
       window is wiped; the permit comes back but the wake is lost. *)
    let cur = Atomic.get t in
    match split_last cur.sq with
    | None -> Atomic.set t { cur with avail = cur.avail + 1 }
    | Some (rest, oldest) ->
        Atomic.set t { cur with sq = rest };
        wake_waiter oldest

  let available t = (Atomic.get t).avail
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
    Fiber.suspend_token (fun tok ->
        let w = { wtok = tok; whome = Fiber.worker_index () } in
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

module Barrier = struct
  (* THE SEEDED BUG(s): the faithful barrier swings {generation;
     arrived; waiters} in ONE CAS before waking anyone.  Here the three
     live in separate atomics: the releasing arrival snatches the
     waiter list, bumps the generation, wakes everyone and only THEN
     resets the count — so an early-woken fiber re-arriving for the
     next phase is wiped by the stale reset, and an arrival that
     counted itself but has not yet published its waiter can be
     released past and stranded. *)
  type t = {
    parties : int;
    count : int Atomic.t;
    bw : waiter list Atomic.t;
    gen : int Atomic.t;
  }

  let create parties =
    {
      parties;
      count = Atomic.make 0;
      bw = Atomic.make [];
      gen = Atomic.make 0;
    }

  let parties t = t.parties
  let phase t = Atomic.get t.gen

  let await t =
    let n = Atomic.fetch_and_add t.count 1 + 1 in
    if n = t.parties then begin
      let ws = Atomic.exchange t.bw [] in
      Atomic.incr t.gen;
      List.iter wake_waiter (List.rev ws);
      Atomic.set t.count 0
    end
    else
      Fiber.suspend_token (fun tok ->
          let w = { wtok = tok; whome = Fiber.worker_index () } in
          let rec register () =
            let cur = Atomic.get t.bw in
            if not (Atomic.compare_and_set t.bw cur (w :: cur)) then
              register ()
          in
          register ())
end

module Rwlock = struct
  type state = {
    readers : int;
    writer : bool;
    rq : waiter list;
    wq : waiter list;
  }

  type t = state Atomic.t

  let create () = Atomic.make { readers = 0; writer = false; rq = []; wq = [] }

  let try_acquire_read t =
    let cur = Atomic.get t in
    (not cur.writer) && cur.wq = []
    && Atomic.compare_and_set t cur { cur with readers = cur.readers + 1 }

  (* Faithful copy of [Sync.Rwlock.acquire_read]. *)
  let acquire_read t =
    if not (try_acquire_read t || Sync.retry (fun () -> try_acquire_read t)) then
      Fiber.suspend_token (fun tok ->
          let w = { wtok = tok; whome = Fiber.worker_index () } in
          let rec register () =
            let cur = Atomic.get t in
            if (not cur.writer) && cur.wq = [] then begin
              if
                Atomic.compare_and_set t cur
                  { cur with readers = cur.readers + 1 }
              then ignore (Fiber.Wake.fire tok)
              else register ()
            end
            else if
              not (Atomic.compare_and_set t cur { cur with rq = w :: cur.rq })
            then register ()
          in
          register ())

  let try_acquire_write t =
    let cur = Atomic.get t in
    (not cur.writer) && cur.readers = 0
    && Atomic.compare_and_set t cur { cur with writer = true }

  (* Faithful copy of [Sync.Rwlock.acquire_write]. *)
  let acquire_write t =
    if not (try_acquire_write t || Sync.retry (fun () -> try_acquire_write t)) then
      Fiber.suspend_token (fun tok ->
          let w = { wtok = tok; whome = Fiber.worker_index () } in
          let rec register () =
            let cur = Atomic.get t in
            if (not cur.writer) && cur.readers = 0 then begin
              if Atomic.compare_and_set t cur { cur with writer = true } then
                ignore (Fiber.Wake.fire tok)
              else register ()
            end
            else if
              not (Atomic.compare_and_set t cur { cur with wq = w :: cur.wq })
            then register ()
          in
          register ())

  (* Faithful copy of [Sync.Rwlock.release_read]. *)
  let rec release_read t =
    let cur = Atomic.get t in
    if cur.readers <= 0 then
      invalid_arg "Buggy_sync.Rwlock.release_read: no reader";
    if cur.readers = 1 && not cur.writer then begin
      match split_last cur.wq with
      | Some (rest, oldest) ->
          if
            Atomic.compare_and_set t cur
              { cur with readers = 0; writer = true; wq = rest }
          then wake_waiter oldest
          else release_read t
      | None ->
          if not (Atomic.compare_and_set t cur { cur with readers = 0 })
          then release_read t
    end
    else if
      not
        (Atomic.compare_and_set t cur { cur with readers = cur.readers - 1 })
    then release_read t

  let rec release_write t =
    let cur = Atomic.get t in
    if not cur.writer then
      invalid_arg "Buggy_sync.Rwlock.release_write: no writer";
    match split_last cur.rq with
    | Some (rest, oldest) ->
        (* THE SEEDED BUG: admit ONE parked reader and forget the rest.
           The faithful release_write admits the whole batch in one CAS
           ([readers = List.length rq]); here the stragglers stay
           parked in [rq] with nobody left who will ever wake them. *)
        if
          Atomic.compare_and_set t cur
            { cur with writer = false; readers = 1; rq = rest }
        then wake_waiter oldest
        else release_write t
    | None -> (
        match split_last cur.wq with
        | Some (rest, oldest) ->
            if Atomic.compare_and_set t cur { cur with wq = rest } then
              wake_waiter oldest
            else release_write t
        | None ->
            if not (Atomic.compare_and_set t cur { cur with writer = false })
            then release_write t)
end
