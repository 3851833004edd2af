(* The TCP serving stack on the fiber runtime: one listening socket
   served by one accept-loop fiber.  A lock-free round-robin
   distributor (one fetch-and-add) spreads the accepted connections'
   handler fibers across the worker domains via [Fiber.spawn_on] --
   connection state is born on the worker that will serve it.

   One fiber per connection, bounded by [max_conns] with real
   backpressure.  One fiber lock ([Sync.Mutex]) guards the slot count
   and one condition ([Sync.Condition]) carries its changes: the accept
   loop takes a slot under the lock and waits on the condition at
   capacity -- the kernel backlog then throttles clients -- and a
   retiring connection gives its slot back and broadcasts.  [stop]
   drains gracefully: stop accepting, broadcast to free a gated accept
   loop, then wait on the same condition for the count to reach 0.
   Nothing but [Condition.wait] parks inside the lock, and no syscall
   or spawn runs there.

   The count stays an atomic, and so do the other counters: any thread
   may read [stats] while workers serve. *)

module Fiber = Fiber_rt.Fiber
module Sync = Fiber_rt.Sync

type conn = {
  fd : Unix.file_descr;
  peer : Unix.sockaddr;
  mutable detached : bool;
      (* handler took ownership (e.g. adopted the fd into a ULP's
         private table): the server must not close it on return *)
}

let detach c = c.detached <- true

type stats = {
  accepted : int;
  active : int;
  max_active : int;
  completed : int;
  failed : int;  (** handlers that raised *)
  accept_retries : int;  (** times the accept loop waited at capacity *)
}

type t = {
  reactor : Reactor.t;
  listen_fd : Unix.file_descr;
  port : int;
  max_conns : int;
  handler : Reactor.t -> conn -> unit;
  stopping : bool Atomic.t;
  (* the slots: [active] and [max_active] are written under [lock];
     [freed] is broadcast whenever [active] falls, and by [stop] *)
  lock : Sync.Mutex.t;
  freed : Sync.Condition.t;
  active : int Atomic.t;
  mutable max_active : int;
  (* counters *)
  accepted : int Atomic.t;
  completed : int Atomic.t;
  failed : int Atomic.t;
  accept_retries : int Atomic.t;
  (* the round-robin distributor: accepted connections' handlers are
     spawned on worker [fetch_and_add next_worker 1 mod domains] *)
  next_worker : int Atomic.t;
  mutable accept_done : Fiber.fiber option;
}

let stats t =
  {
    accepted = Atomic.get t.accepted;
    active = Atomic.get t.active;
    max_active = t.max_active;
    completed = Atomic.get t.completed;
    failed = Atomic.get t.failed;
    accept_retries = Atomic.get t.accept_retries;
  }

let port t = t.port
let active t = Atomic.get t.active

(* Wait at capacity until a slot is free, then take it.  [false]: stop
   began, and no slot was taken. *)
let take_slot t =
  Sync.Mutex.lock t.lock;
  while Atomic.get t.active >= t.max_conns && not (Atomic.get t.stopping) do
    Atomic.incr t.accept_retries;
    Sync.Condition.wait t.freed t.lock
  done;
  let taken = not (Atomic.get t.stopping) in
  (* ulplint: allow atomic-check-then-faa -- every write to active holds t.lock, so the capacity check above and this add are one critical section *)
  if taken then Atomic.incr t.active;
  Sync.Mutex.unlock t.lock;
  taken

(* The slot just taken holds a connection now, and so does every other:
   raise the high-water mark.  A slot whose accept failed never counts. *)
let note_accepted t =
  Atomic.incr t.accepted;
  Sync.Mutex.lock t.lock;
  let n = Atomic.get t.active in
  if n > t.max_active then t.max_active <- n;
  Sync.Mutex.unlock t.lock

(* Give a slot back: its connection retired, or [accept_loop] found no
   connection to spend it on.  Either way a gated accept loop may now
   fit, and a draining [stop] may be done. *)
let retire t =
  Sync.Mutex.lock t.lock;
  Atomic.decr t.active;
  Sync.Mutex.unlock t.lock;
  Sync.Condition.broadcast t.freed

let serve_conn t fd peer =
  let c = { fd; peer; detached = false } in
  (match t.handler t.reactor c with
  | () -> Atomic.incr t.completed
  | exception _ -> Atomic.incr t.failed);
  if not c.detached then (try Fiber_io.close fd with Unix.Unix_error _ -> ());
  retire t

(* Spawn the connection handler on the next worker round-robin (one
   lock-free fetch-and-add) -- the distributor that spreads load while
   the single accept loop runs on one worker.  A lone worker (as under
   [Fiber.run]) has nothing to distribute over. *)
let spawn_handler t conn_fd peer =
  let body () = serve_conn t conn_fd peer in
  match Fiber.num_workers () with
  | Some n when n > 1 ->
      ignore (Fiber.spawn_on ~worker:(Atomic.fetch_and_add t.next_worker 1 mod n) body)
  | _ -> ignore (Fiber.spawn body)

(* Pause before retrying an accept that failed for lack of fds or
   kernel memory: long enough not to spin on a full fd table, short
   enough that a freed fd is used promptly. *)
let accept_backoff_s = 0.01

(* Backpressure: the loop waits for a pending connection first and only
   then takes a slot, for the one non-blocking accept, so it never holds
   a slot while idle.  That wait follows an accept, not an EAGAIN, so it
   is the level-triggered [Fiber_io.wait]: one edge may announce several
   queued connections, and the re-arm reports those still queued. *)
let accept_loop t =
  let rec go () =
    if not (Atomic.get t.stopping) then
      match Fiber_io.wait t.reactor t.listen_fd `R with
      | () -> if take_slot t then accept ()
      | exception Reactor.Reactor_stopped -> ()
  and accept () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | conn_fd, peer ->
        Unix.set_nonblock conn_fd;
        note_accepted t;
        spawn_handler t conn_fd peer;
        go ()
    | exception
        Unix.Unix_error
          ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED),
            _,
            _ ) ->
        (* a spurious wake, or the peer gave up: no connection for this
           slot *)
        retire t;
        go ()
    | exception
        Unix.Unix_error
          ((Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM), _, _) -> (
        (* out of fds or kernel memory: the connection stays in the
           backlog.  Give the slot back, back off, then retry. *)
        retire t;
        match Reactor.sleep t.reactor accept_backoff_s with
        | () -> go ()
        | exception Reactor.Reactor_stopped -> ())
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        (* listener shut down under us: stop requested *)
        retire t
    | exception e ->
        retire t;
        raise e
  in
  go ()

let start ~reactor ?(backlog = 128) ?(max_conns = max_int) ~addr ~handler () =
  let listen_fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd addr;
     Unix.listen listen_fd backlog;
     Unix.set_nonblock listen_fd
   with e ->
     Unix.close listen_fd;
     raise e);
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> 0
  in
  let t =
    {
      reactor;
      listen_fd;
      port;
      max_conns;
      handler;
      stopping = Atomic.make false;
      lock = Sync.Mutex.create ();
      freed = Sync.Condition.create ();
      active = Atomic.make 0;
      max_active = 0;
      accepted = Atomic.make 0;
      completed = Atomic.make 0;
      failed = Atomic.make 0;
      accept_retries = Atomic.make 0;
      next_worker = Atomic.make 0;
      accept_done = None;
    }
  in
  t.accept_done <- Some (Fiber.spawn (fun () -> accept_loop t));
  t

(* Graceful drain: stop accepting (shutdown() makes the parked accept
   observe readiness and fail with EINVAL/EBADF), free an accept loop
   waiting at capacity, then wait until every active connection
   retires.  The broadcast holds the lock: a loop that read [stopping]
   as false under it is on the condition before the lock is free. *)
let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Sync.Mutex.with_lock t.lock (fun () -> Sync.Condition.broadcast t.freed);
    Option.iter Fiber.join t.accept_done;
    (try Fiber_io.close t.listen_fd with Unix.Unix_error _ -> ());
    Sync.Mutex.lock t.lock;
    while Atomic.get t.active > 0 do
      Sync.Condition.wait t.freed t.lock
    done;
    Sync.Mutex.unlock t.lock
  end
