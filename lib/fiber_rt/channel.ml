(* Bounded FIFO channels for fibers: the communication primitive the
   real runtime's examples, tests and benches build pipelines from.

   Channel state is guarded by a mutex: uncontended under [Fiber.run]
   (one worker), and a real lock under [Fiber.run_parallel] where the
   two endpoints may sit on different domains.  A fiber that must wait registers its waker
   *while still holding the lock* (the unlock happens inside the
   [Fiber.suspend] registration callback, after the waker is enqueued),
   so a peer on another domain cannot slip in between the state check
   and the registration -- the classic lost-wakeup race.  Wakers are
   always invoked outside the lock.

   Instrumentation seam (see Atomic_intf): this file is compiled a
   second time inside lib/check, where sibling modules shadow [Mutex]
   with a traced lock model and [Fiber] with a park/wake shim, so the
   lost-wakeup protocol above is model-checked.  Keep the blocking
   vocabulary down to Mutex.lock/unlock and Fiber.suspend. *)

exception Closed

type 'a t = {
  mutex : Mutex.t;
  capacity : int;
  items : 'a Queue.t;
  recv_waiters : (unit -> unit) Queue.t;
  send_waiters : (unit -> unit) Queue.t;
  mutable closed : bool;
}

let create ?(capacity = 1) () =
  if capacity < 1 then invalid_arg "Channel.create: capacity must be >= 1";
  {
    mutex = Mutex.create ();
    capacity;
    items = Queue.create ();
    recv_waiters = Queue.create ();
    send_waiters = Queue.create ();
    closed = false;
  }

let length t =
  (* ulplint: allow raw-mutex-in-fiber -- held only for O(1) queue ops, never across a park (wait_on drops it); shared with senders on other domains and traced as Check.Mutex in lib/check *)
  Mutex.lock t.mutex;
  let n = Queue.length t.items in
  Mutex.unlock t.mutex;
  n

(* Park on [waiters]; called with the lock held, resumes with it
   re-taken. *)
let wait_on t waiters =
  Fiber.suspend (fun wake ->
      Queue.push wake waiters;
      Mutex.unlock t.mutex);
  (* ulplint: allow raw-mutex-in-fiber -- held only for O(1) queue ops, never across a park (wait_on drops it); shared with senders on other domains and traced as Check.Mutex in lib/check *)
  Mutex.lock t.mutex

(* Send, suspending while the channel is full.
   @raise Closed if the channel is (or becomes) closed. *)
let send t v =
  (* ulplint: allow raw-mutex-in-fiber -- held only for O(1) queue ops, never across a park (wait_on drops it); shared with senders on other domains and traced as Check.Mutex in lib/check *)
  Mutex.lock t.mutex;
  while Queue.length t.items >= t.capacity && not t.closed do
    (* ulplint: allow park-while-locked -- wait_on publishes the waker and unlocks INSIDE the suspend registration, then relocks on resume: the no-lost-wakeup handoff, model-checked as the Check-recompiled Channel in lib/check *)
    wait_on t t.send_waiters
  done;
  if t.closed then begin
    Mutex.unlock t.mutex;
    raise Closed
  end;
  Queue.push v t.items;
  let waiter = Queue.take_opt t.recv_waiters in
  Mutex.unlock t.mutex;
  match waiter with Some wake -> wake () | None -> ()

(* Receive, suspending while the channel is empty.  Returns [None] once
   the channel is closed and drained. *)
let recv t =
  (* ulplint: allow raw-mutex-in-fiber -- held only for O(1) queue ops, never across a park (wait_on drops it); shared with senders on other domains and traced as Check.Mutex in lib/check *)
  Mutex.lock t.mutex;
  let rec go () =
    match Queue.take_opt t.items with
    | Some v ->
        let waiter = Queue.take_opt t.send_waiters in
        Mutex.unlock t.mutex;
        (match waiter with Some wake -> wake () | None -> ());
        Some v
    | None ->
        if t.closed then begin
          Mutex.unlock t.mutex;
          None
        end
        else begin
          (* ulplint: allow park-while-locked -- wait_on publishes the waker and unlocks INSIDE the suspend registration, then relocks on resume: the no-lost-wakeup handoff, model-checked as the Check-recompiled Channel in lib/check *)
          wait_on t t.recv_waiters;
          go ()
        end
  in
  go ()

(* Close: senders raise, receivers drain then see [None]. *)
let close t =
  (* ulplint: allow raw-mutex-in-fiber -- held only for O(1) queue ops, never across a park (wait_on drops it); shared with senders on other domains and traced as Check.Mutex in lib/check *)
  Mutex.lock t.mutex;
  if t.closed then Mutex.unlock t.mutex
  else begin
    t.closed <- true;
    let wakes =
      List.of_seq (Queue.to_seq t.recv_waiters)
      @ List.of_seq (Queue.to_seq t.send_waiters)
    in
    Queue.clear t.recv_waiters;
    Queue.clear t.send_waiters;
    Mutex.unlock t.mutex;
    List.iter (fun wake -> wake ()) wakes
  end

(* Fold over everything received until the channel closes. *)
let fold t ~init ~f =
  let rec go acc = match recv t with None -> acc | Some v -> go (f acc v) in
  go init

let iter t ~f = fold t ~init:() ~f:(fun () v -> f v)
