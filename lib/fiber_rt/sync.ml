(* Fiber-aware synchronization: parking parks the *fiber*, never the
   worker domain.

   Both primitives keep their whole state in a single [Atomic.t] cell
   holding an immutable list/variant, walked only by CAS (read the
   current value, build the successor, [compare_and_set], retry on
   conflict) — the same discipline as [Completion] and [Idle_waker].
   A waiter is the bare token its fiber parked with
   ([Fiber.suspend_token]); a wake fires it home ([Fiber.Wake.fire_home])
   and the engine decides where the fiber resumes.

   Wake-ups are *handoffs*: an unlock that finds a waiter transfers
   ownership (the lock stays [Locked]) and fires exactly that waiter,
   so there is no thundering herd and no lost-wakeup window between
   "release" and "wake".

   Blocking acquires try once, retry a bounded number of times only on
   a multi-worker pool ([retry]), then park.  Nothing here is tunable:
   the retry budget follows from the pool width.

   This file is recompiled inside lib/check against the traced
   Atomic/Fiber shims, so it must confine itself to that vocabulary:
   no [Unix], no [Domain], no Stdlib.Mutex, no unbounded spinning. *)

(* A parked fiber is its one-shot wake token. *)
type waiter = Fiber.Wake.token

let wake_waiter w = ignore (Fiber.Wake.fire_home w)

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

module Condition = struct
  (* Parked waiters, newest-first.  [wait] publishes the waiter and
     *then* releases the mutex, both inside the suspend registration,
     so a signaller running between unlock and park still finds the
     waiter — the lost-wakeup window this ordering closes is exactly
     what the seeded twin in lib/check reopens. *)
  type t = waiter list Atomic.t

  let create () = Atomic.make []

  let wait t m =
    Fiber.suspend_token (fun w ->
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
