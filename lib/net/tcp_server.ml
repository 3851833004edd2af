(* The TCP serving stack on the fiber runtime: one listening socket
   served by one accept-loop fiber.  A lock-free round-robin
   distributor (one fetch-and-add) spreads the accepted connections'
   handler fibers across the worker domains via [Fiber.spawn_on] --
   connection state is born on the worker that will serve it.

   One fiber per connection, bounded by [max_conns] with real
   backpressure: at capacity the accept loop parks on a [Readiness]
   gate until a connection retires -- the kernel backlog then throttles
   clients.  [stop] drains gracefully: stop accepting, wake the accept
   loop, wait for active connections to retire.

   Counters are atomics: any thread may read [stats] while workers
   serve. *)

module Fiber = Fiber_rt.Fiber

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
  accept_retries : int;  (** accept-loop parks waiting for a free slot *)
}

type t = {
  reactor : Reactor.t;
  listen_fd : Unix.file_descr;
  port : int;
  max_conns : int;
  handler : Reactor.t -> conn -> unit;
  stopping : bool Atomic.t;
  (* counters *)
  accepted : int Atomic.t;
  active : int Atomic.t;
  max_active : int Atomic.t;
  completed : int Atomic.t;
  failed : int Atomic.t;
  accept_retries : int Atomic.t;
  (* the round-robin distributor: accepted connections' handlers are
     spawned on worker [fetch_and_add next_worker 1 mod domains] *)
  next_worker : int Atomic.t;
  (* backpressure gate: a retiring connection posts it; the accept loop
     awaits it at capacity *)
  gate : Readiness.t;
  (* drain gate: the last retiring connection posts it during stop *)
  drained : Readiness.t;
  mutable accept_done : Fiber.fiber option;
}

let stats t =
  {
    accepted = Atomic.get t.accepted;
    active = Atomic.get t.active;
    max_active = Atomic.get t.max_active;
    completed = Atomic.get t.completed;
    failed = Atomic.get t.failed;
    accept_retries = Atomic.get t.accept_retries;
  }

let port t = t.port
let active t = Atomic.get t.active

let gate_wait cell =
  Fiber.suspend (fun wake -> ignore (Readiness.await cell wake))

let rec bump_max a v =
  let m = Atomic.get a in
  if v > m && not (Atomic.compare_and_set a m v) then bump_max a v

(* Give a slot back: its connection retired, or [accept_loop] found no
   connection to spend it on.  Either way a gated accept loop may now
   fit. *)
let retire t =
  let left = Conn_slots.release t.active in
  ignore (Readiness.post t.gate);
  if left = 0 && Atomic.get t.stopping then ignore (Readiness.post t.drained)

let serve_conn t fd peer =
  let c = { fd; peer; detached = false } in
  (match t.handler t.reactor c with
  | () -> Atomic.incr t.completed
  | exception _ -> Atomic.incr t.failed);
  if not c.detached then (try Unix.close fd with Unix.Unix_error _ -> ());
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
   then takes a slot, for the one non-blocking accept.  At capacity it
   parks on the gate until [retire] frees a slot. *)
let accept_loop t =
  let rec go () =
    if not (Atomic.get t.stopping) then
      match Fiber_io.wait t.reactor t.listen_fd `R with
      | () -> take ()
      | exception Reactor.Reactor_stopped -> ()
  and take () =
    if not (Atomic.get t.stopping) then
      match Conn_slots.reserve t.active ~cap:t.max_conns with
      | 0 ->
          Atomic.incr t.accept_retries;
          if Atomic.get t.active >= t.max_conns && not (Atomic.get t.stopping)
          then gate_wait t.gate;
          take ()
      | n -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | conn_fd, peer ->
              Unix.set_nonblock conn_fd;
              Atomic.incr t.accepted;
              bump_max t.max_active n;
              spawn_handler t conn_fd peer;
              go ()
          | exception
              Unix.Unix_error
                ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                  | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
              (* a spurious wake, or the peer gave up: no connection
                 for this slot *)
              retire t;
              go ()
          | exception
              Unix.Unix_error
                ((Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM), _, _)
            ->
              (* out of fds or kernel memory: the connection stays in the
                 backlog.  Give the slot back, back off, then retry. *)
              retire t;
              (match Reactor.sleep t.reactor accept_backoff_s with
              | () -> go ()
              | exception Reactor.Reactor_stopped -> ())
          | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
              (* listener shut down under us: stop requested *)
              retire t
          | exception e ->
              retire t;
              raise e)
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
      accepted = Atomic.make 0;
      active = Atomic.make 0;
      max_active = Atomic.make 0;
      completed = Atomic.make 0;
      failed = Atomic.make 0;
      accept_retries = Atomic.make 0;
      next_worker = Atomic.make 0;
      gate = Readiness.create ();
      drained = Readiness.create ();
      accept_done = None;
    }
  in
  t.accept_done <- Some (Fiber.spawn (fun () -> accept_loop t));
  t

(* Graceful drain: stop accepting (shutdown() makes the parked accept
   observe readiness and fail with EINVAL/EBADF), wake the gate-parked
   accept loop, then wait until every active connection retires. *)
let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    ignore (Readiness.post t.gate);
    Option.iter Fiber.join t.accept_done;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* connections still in flight: wait for the last to retire *)
    while Atomic.get t.active > 0 do
      gate_wait t.drained
    done
  end
