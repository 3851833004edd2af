(* Fiber-aware synchronization: parking parks the *fiber*, never the
   worker domain.

   Every primitive keeps its whole state in a single [Atomic.t] cell
   holding an immutable record/variant, walked only by CAS (read the
   current value, build the successor, [compare_and_set], retry on
   conflict) — the same discipline as [Completion] and [Idle_waker].
   Waiters park through [Fiber.suspend_token] and are woken through
   [Fiber.Wake.fire_to] with the worker index recorded at park time, so
   a wake goes to the parking worker's private inbox when possible.

   Wake-ups are *handoffs*: an unlock that finds a waiter transfers
   ownership (the lock stays [Locked], the semaphore permit is never
   re-added) and fires exactly that waiter, so there is no thundering
   herd and no lost-wakeup window between "release" and "wake".

   Blocking acquires try once, retry a bounded number of times only on
   a multi-worker pool ([retry]), then park.  Nothing here is tunable:
   the retry budget follows from the pool width.

   This file is recompiled inside lib/check against the traced
   Atomic/Fiber shims, so it must confine itself to that vocabulary:
   no [Unix], no [Domain], no Stdlib.Mutex, no unbounded spinning. *)

(* A parked fiber: its one-shot wake token plus the worker that parked
   it, captured at suspend time so the waker can route the resumption
   back to the same domain's private inbox. *)
type waiter = { wtok : Fiber.Wake.token; whome : int option }

let wake_waiter w = ignore (Fiber.Wake.fire_to ?worker:w.whome w.wtok)

(* [split_last ws] on a newest-first waiter list: the oldest waiter and
   the rest, preserving order.  O(length), and waiter lists only hold
   currently-parked fibers, so this stays short. *)
let split_last ws =
  let rec go acc = function
    | [] -> None
    | [ oldest ] -> Some (List.rev acc, oldest)
    | w :: tl -> go (w :: acc) tl
  in
  go [] ws

(* Pre-park retries after a failed first try, on a pool of more than
   one worker.  On a lone worker the holder is a fiber on this same
   worker, and it cannot run until this one parks (the engine's no-spin
   rule for a 1-worker pool), so there the caller parks at once.  Only
   called after the first try failed: the uncontended path never asks
   for the pool width, and the closure is built on the slow path only.
   The lib/check Fiber shim reports no pool, so the checker explores
   the park-at-once path. *)
let retry attempt =
  match Fiber.num_workers () with
  | Some n when n > 1 ->
      let rec go budget = budget > 0 && (attempt () || go (budget - 1)) in
      go 32
  | Some _ | None -> false

module Mutex = struct
  (* [Locked ws]: held, with [ws] the parked waiters newest-first.
     Unlock with waiters is a handoff: the state stays [Locked] and the
     oldest waiter is fired, so it owns the mutex when it resumes. *)
  type state = Unlocked | Locked of waiter list

  type t = state Atomic.t

  let create () = Atomic.make Unlocked

  let try_lock m =
    match Atomic.get m with
    | Unlocked -> Atomic.compare_and_set m Unlocked (Locked [])
    | Locked _ -> false

  let lock m =
    if not (try_lock m || retry (fun () -> try_lock m)) then
      (* Park.  Registration re-checks under CAS: either we enqueue
         ourselves while the mutex is held, or we grab it and consume
         our own token.  Both paths end with us owning the mutex when
         [suspend_token] returns. *)
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

  let rec unlock m =
    match Atomic.get m with
    | Unlocked -> invalid_arg "Sync.Mutex.unlock: not locked"
    | Locked [] as cur ->
        if not (Atomic.compare_and_set m cur Unlocked) then unlock m
    | Locked ws as cur -> (
        match split_last ws with
        | None -> assert false
        | Some (rest, oldest) ->
            (* Handoff: state stays [Locked] for [oldest]. *)
            if Atomic.compare_and_set m cur (Locked rest) then
              wake_waiter oldest
            else unlock m)

  let with_lock t f =
    lock t;
    match f () with
    | v ->
        unlock t;
        v
    | exception e ->
        unlock t;
        raise e
end

module Semaphore = struct
  (* [avail] permits and parked acquirers, newest-first.  Invariant:
     [avail > 0] implies [sq = []] — a release with waiters hands its
     permit straight to the oldest waiter without re-adding it, and an
     acquire only enqueues after re-checking [avail = 0] under CAS. *)
  type state = { avail : int; sq : waiter list }

  type t = state Atomic.t

  let create permits =
    if permits < 0 then invalid_arg "Sync.Semaphore.create: negative permits";
    Atomic.make { avail = permits; sq = [] }

  let try_acquire t =
    let cur = Atomic.get t in
    cur.avail > 0
    && Atomic.compare_and_set t cur { cur with avail = cur.avail - 1 }

  let acquire t =
    if not (try_acquire t || retry (fun () -> try_acquire t)) then
      Fiber.suspend_token (fun tok ->
          let w = { wtok = tok; whome = Fiber.worker_index () } in
          let rec register () =
            let cur = Atomic.get t in
            if cur.avail > 0 then begin
              if Atomic.compare_and_set t cur { cur with avail = cur.avail - 1 }
              then ignore (Fiber.Wake.fire tok)
              else register ()
            end
            else if
              not (Atomic.compare_and_set t cur { cur with sq = w :: cur.sq })
            then register ()
          in
          register ())

  let rec release t =
    let cur = Atomic.get t in
    match split_last cur.sq with
    | None ->
        if not (Atomic.compare_and_set t cur { cur with avail = cur.avail + 1 })
        then release t
    | Some (rest, oldest) ->
        (* Permit handoff: [avail] is unchanged, the waiter owns it. *)
        if Atomic.compare_and_set t cur { cur with sq = rest } then
          wake_waiter oldest
        else release t

  let available t = (Atomic.get t).avail

  let with_acquire t f =
    acquire t;
    match f () with
    | v ->
        release t;
        v
    | exception e ->
        release t;
        raise e
end

module Rwlock = struct
  (* [readers] active readers, [writer] an active writer, [rq]/[wq]
     parked readers/writers (newest-first).  Entry policy is
     writer-preferring: a reader parks whenever a writer is active *or
     queued*.  Starvation is broken on release: a write release wakes
     the whole parked-reader batch (counting them all active in the
     same CAS) before the next writer, so readers and writers
     alternate under contention.

     Reachable-state invariants (each transition is one CAS):
     - [writer] implies [readers = 0];
     - [wq <> []] implies [writer || readers > 0] (a blocked writer
       always has an active party due to hand it the lock);
     - [rq <> []] implies [writer || wq <> []]. *)
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

  let acquire_read t =
    if not (try_acquire_read t || retry (fun () -> try_acquire_read t)) then
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

  let acquire_write t =
    if not (try_acquire_write t || retry (fun () -> try_acquire_write t)) then
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

  let rec release_read t =
    let cur = Atomic.get t in
    if cur.readers <= 0 then invalid_arg "Sync.Rwlock.release_read: no reader";
    if cur.readers = 1 && not cur.writer then begin
      match split_last cur.wq with
      | Some (rest, oldest) ->
          (* Last reader out with a writer parked: handoff. *)
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
      not (Atomic.compare_and_set t cur { cur with readers = cur.readers - 1 })
    then release_read t

  let rec release_write t =
    let cur = Atomic.get t in
    if not cur.writer then invalid_arg "Sync.Rwlock.release_write: no writer";
    match cur.rq with
    | _ :: _ ->
        (* Anti-starvation: the whole parked-reader batch enters before
           the next writer, all counted active in this one CAS. *)
        if
          Atomic.compare_and_set t cur
            { cur with writer = false; readers = List.length cur.rq; rq = [] }
        then List.iter wake_waiter (List.rev cur.rq)
        else release_write t
    | [] -> (
        match split_last cur.wq with
        | Some (rest, oldest) ->
            (* Writer-to-writer handoff: [writer] stays set. *)
            if Atomic.compare_and_set t cur { cur with wq = rest } then
              wake_waiter oldest
            else release_write t
        | None ->
            if not (Atomic.compare_and_set t cur { cur with writer = false })
            then release_write t)

  let with_read t f =
    acquire_read t;
    match f () with
    | v ->
        release_read t;
        v
    | exception e ->
        release_read t;
        raise e

  let with_write t f =
    acquire_write t;
    match f () with
    | v ->
        release_write t;
        v
    | exception e ->
        release_write t;
        raise e
end

module Condition = struct
  (* Parked waiters, newest-first.  [wait] publishes the waiter and
     *then* releases the mutex, both inside the suspend registration,
     so a signaller running between unlock and park still finds the
     waiter — the lost-wakeup window this ordering closes is exactly
     what the seeded twin in lib/check reopens. *)
  type t = waiter list Atomic.t

  let create () = Atomic.make []

  let wait t m =
    Fiber.suspend_token (fun tok ->
        let w = { wtok = tok; whome = Fiber.worker_index () } in
        let rec register () =
          let cur = Atomic.get t in
          if not (Atomic.compare_and_set t cur (w :: cur)) then register ()
        in
        register ();
        Mutex.unlock m);
    Mutex.lock m

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
  (* One generation per [parties] arrivals.  The last arrival swings
     the whole cell to the next generation (count reset *and*
     generation bump in the same CAS) before waking anyone, so an
     early-woken fiber re-entering the barrier can never have its
     arrival wiped by a late reset — the classic barrier-generation
     bug its lib/check twin reintroduces. *)
  type state = { gen : int; arrived : int; bw : waiter list }

  type t = { parties : int; b : state Atomic.t }

  let create parties =
    if parties < 1 then invalid_arg "Sync.Barrier.create: parties < 1";
    { parties; b = Atomic.make { gen = 0; arrived = 0; bw = [] } }

  let parties t = t.parties

  let phase t = (Atomic.get t.b).gen

  let await t =
    let rec arrive () =
      let cur = Atomic.get t.b in
      if cur.arrived + 1 = t.parties then
        if
          Atomic.compare_and_set t.b cur
            { gen = cur.gen + 1; arrived = 0; bw = [] }
        then begin
          List.iter wake_waiter (List.rev cur.bw);
          true
        end
        else arrive ()
      else false
    in
    if not (arrive ()) then
      Fiber.suspend_token (fun tok ->
          let w = { wtok = tok; whome = Fiber.worker_index () } in
          let rec register () =
            let cur = Atomic.get t.b in
            if cur.arrived + 1 = t.parties then begin
              if
                Atomic.compare_and_set t.b cur
                  { gen = cur.gen + 1; arrived = 0; bw = [] }
              then begin
                List.iter wake_waiter (List.rev cur.bw);
                ignore (Fiber.Wake.fire tok)
              end
              else register ()
            end
            else if
              not
                (Atomic.compare_and_set t.b cur
                   { cur with arrived = cur.arrived + 1; bw = w :: cur.bw })
            then register ()
          in
          register ())
end
