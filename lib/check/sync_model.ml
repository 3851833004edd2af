(* Model of [Fiber_rt.Sync]'s contract for lib/check: what the copy of
   channel.ml compiled here sees as [Sync] (lib/check/dune binds the
   name).  The faithful copy of sync.ml is checked on its own (the
   sync group of test_check); checking Channel over it as well
   multiplies the two state spaces past what the explorer can exhaust,
   so Channel is checked against this contract instead.

   [Mutex] is the traced lock, one guarded step per lock: it lets any
   locker barge in where Sync hands the lock to the oldest waiter, a
   superset of Sync's schedules.  [Condition.wait] publishes the waiter
   and releases the mutex inside the park registration, and
   [signal]/[broadcast] wake the oldest waiter/every waiter, each queue
   operation one traced step on the condition. *)

module Mutex = struct
  include Mutex

  let with_lock m f =
    lock m;
    Fun.protect ~finally:(fun () -> unlock m) f
end

module Condition = struct
  type t = { id : int; waiters : (unit -> unit) Queue.t }

  let create () = { id = Sched.fresh_obj (); waiters = Queue.create () }

  let wait t m =
    Fiber.suspend (fun wake ->
        Sched.atomic_step ~kind:Sched.Set ~obj:t.id ~note:"publish" (fun () ->
            Queue.push wake t.waiters);
        Mutex.unlock m);
    Mutex.lock m

  let signal t =
    match
      Sched.atomic_step ~kind:Sched.Exchange ~obj:t.id ~note:"signal"
        (fun () -> Queue.take_opt t.waiters)
    with
    | Some wake -> wake ()
    | None -> ()

  let broadcast t =
    Sched.atomic_step ~kind:Sched.Exchange ~obj:t.id ~note:"broadcast"
      (fun () ->
        let ws = List.of_seq (Queue.to_seq t.waiters) in
        Queue.clear t.waiters;
        ws)
    |> List.iter (fun wake -> wake ())
end
