(* Structured concurrency: a nursery that owns every fiber spawned
   into it.  [run] does not return until the body *and* all children
   have exited; the first real failure anywhere in the tree cancels the
   rest and is re-raised at the scope edge.

   The protocol is three lock-free cells, all walked by CAS:

   - [live]: body + running children.  Each [enter] (spawn) increments,
     each [leave] (child or body exit) decrements; the 1 -> 0 crossing
     happens exactly once and fires [done_].
   - [failure]: the first non-[Cancelled] exception, claimed by CAS so
     racing failures record exactly one winner.
   - [cancelled]: a sticky flag children poll cooperatively via
     [check]; [Cancelled] raised in response is absorbed at the edge,
     so cancellation is quiet and only real errors propagate.

   Waiting rides on [Completion] — the same joiner cell fibers use —
   with the wake fired home ([Fiber.Wake.fire]), back to the
   worker that parked the awaiting fiber.  Like [Sync], this file is
   recompiled inside lib/check against the traced shims, so it sticks
   to the Atomic/Fiber/Completion vocabulary. *)

exception Cancelled

type t = {
  live : int Atomic.t;
  failure : exn option Atomic.t;
  cancelled : bool Atomic.t;
  done_ : unit Completion.t;
}

let create () =
  {
    live = Atomic.make 1;
    failure = Atomic.make None;
    cancelled = Atomic.make false;
    done_ = Completion.create ();
  }

let is_cancelled t = Atomic.get t.cancelled

let check t = if is_cancelled t then raise Cancelled

let cancel t = Atomic.set t.cancelled true

let fail t exn =
  (match exn with
  | Cancelled -> ()
  | _ -> ignore (Atomic.compare_and_set t.failure None (Some exn)));
  Atomic.set t.cancelled true

let failure t = Atomic.get t.failure

let live t = Atomic.get t.live

let enter t =
  if Completion.is_done t.done_ then
    invalid_arg "Scope.enter: scope already exited";
  Atomic.incr t.live

let leave t =
  if Atomic.fetch_and_add t.live (-1) = 1 then Completion.finish t.done_ ()

let await t =
  leave t;
  if not (Completion.is_done t.done_) then
    Fiber.suspend_token (fun tok ->
        Completion.add_joiner t.done_ (fun () -> ignore (Fiber.Wake.fire tok)))

let spawn ?worker t body =
  enter t;
  let child () =
    (try body () with e -> fail t e);
    leave t
  in
  match worker with
  | Some w -> ignore (Fiber.spawn_on ~worker:w child)
  | None -> ignore (Fiber.spawn child)

let run body =
  let t = create () in
  let res =
    match body t with
    | v -> Ok v
    | exception e ->
        fail t e;
        Error e
  in
  await t;
  match failure t with
  | Some e -> raise e
  | None -> ( match res with Ok v -> v | Error e -> raise e)
