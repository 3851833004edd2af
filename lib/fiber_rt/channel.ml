(* Bounded FIFO channels for fibers: the communication primitive the
   real runtime's examples, tests and benches build pipelines from.

   A thin layer over [Sync]: one fiber mutex guards the queue, and two
   conditions carry its changes -- [not_empty] for receivers, [not_full]
   for senders.  Each wait is a [while] loop around [Condition.wait],
   which publishes the waiter before it releases the mutex, so a peer on
   another domain cannot slip a wake between the state check and the
   park.  [send] and [recv] signal after they unlock, and [close]
   broadcasts both conditions.  A contended lock parks the fiber, never
   the worker's OS thread.

   Instrumentation seam (see Atomic_intf): this file is compiled a
   second time inside lib/check, where [Sync] is bound to a traced model
   of its contract (lib/check/sync_model.ml), so the wait protocol above
   is model-checked.  Keep the blocking vocabulary down to the [Sync]
   names that model provides. *)

exception Closed

type 'a t = {
  lock : Sync.Mutex.t;
  not_empty : Sync.Condition.t;
  not_full : Sync.Condition.t;
  capacity : int;
  items : 'a Queue.t;
  mutable closed : bool;
}

let create ?(capacity = 1) () =
  if capacity < 1 then invalid_arg "Channel.create: capacity must be >= 1";
  {
    lock = Sync.Mutex.create ();
    not_empty = Sync.Condition.create ();
    not_full = Sync.Condition.create ();
    capacity;
    items = Queue.create ();
    closed = false;
  }

let length t = Sync.Mutex.with_lock t.lock (fun () -> Queue.length t.items)

(* Send, suspending while the channel is full.
   @raise Closed if the channel is (or becomes) closed. *)
let send t v =
  Sync.Mutex.with_lock t.lock (fun () ->
      while Queue.length t.items >= t.capacity && not t.closed do
        Sync.Condition.wait t.not_full t.lock
      done;
      if t.closed then raise Closed;
      Queue.push v t.items);
  Sync.Condition.signal t.not_empty

(* Receive, suspending while the channel is empty.  Returns [None] once
   the channel is closed and drained. *)
let recv t =
  let v =
    Sync.Mutex.with_lock t.lock (fun () ->
        while Queue.is_empty t.items && not t.closed do
          Sync.Condition.wait t.not_empty t.lock
        done;
        Queue.take_opt t.items)
  in
  if Option.is_some v then Sync.Condition.signal t.not_full;
  v

(* Close: senders raise, receivers drain then see [None]. *)
let close t =
  Sync.Mutex.with_lock t.lock (fun () -> t.closed <- true);
  Sync.Condition.broadcast t.not_empty;
  Sync.Condition.broadcast t.not_full

(* Fold over everything received until the channel closes. *)
let fold t ~init ~f =
  let rec go acc = match recv t with None -> acc | Some v -> go (f acc v) in
  go init

let iter t ~f = fold t ~init:() ~f:(fun () v -> f v)
