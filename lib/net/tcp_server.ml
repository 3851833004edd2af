(* The TCP serving stack on the fiber runtime, with sharded accepting:
   one accept-loop fiber per reactor shard instead of one, so new
   connections stop funneling through a single fiber (and, under the
   sharded reactor, through a single poller thread).

   Accept sharding has two modes, picked at [start]:

   - SO_REUSEPORT (Linux and BSDs): one listening socket per accept
     loop, all bound to the same address; the kernel hash-distributes
     incoming connections across them, so the loops park on distinct
     fds and distinct reactor shards with no shared state at all.

   - Fallback (option unsupported): one listening socket shared by all
     accept loops; every loop parks on the same fd and the reactor
     wakes them all on readiness -- the non-winners see EAGAIN and
     re-park (a mild herd, bounded by the shard count).

   In both modes a lock-free round-robin distributor (one
   fetch-and-add) spreads the accepted connections' handler fibers
   across the worker domains via [Fiber.spawn_on] -- connection state
   is born on the worker that will serve it.

   One fiber per connection, bounded by [max_conns] with real
   backpressure: at capacity an accept loop parks on its own
   [Readiness] gate until a connection retires -- the kernel backlog
   then throttles clients.  (Per-loop gates because a Readiness cell
   holds exactly one waiter.)  [stop] drains gracefully: stop
   accepting, wake the accept loops, wait for active connections to
   retire.

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
  listeners : int;  (** accept loops *)
  reuseport : bool;  (** one socket per loop (vs one shared socket) *)
}

type t = {
  reactor : Reactor.t;
  listen_fds : Unix.file_descr array; (* one per loop, or a single shared one *)
  reuseport : bool;
  n_loops : int;
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
  (* per-loop backpressure gates: a retiring connection posts them all;
     an accept loop at capacity awaits its own (a Readiness cell holds
     exactly one waiter) *)
  gates : Readiness.t array;
  (* drain gate: the last retiring connection posts it during stop *)
  drained : Readiness.t;
  mutable accept_done : Fiber.fiber list;
}

let stats t =
  {
    accepted = Atomic.get t.accepted;
    active = Atomic.get t.active;
    max_active = Atomic.get t.max_active;
    completed = Atomic.get t.completed;
    failed = Atomic.get t.failed;
    accept_retries = Atomic.get t.accept_retries;
    listeners = t.n_loops;
    reuseport = t.reuseport;
  }

let port t = t.port
let active t = Atomic.get t.active

let gate_wait cell =
  Fiber.suspend (fun wake -> ignore (Readiness.await cell wake))

let rec bump_max a v =
  let m = Atomic.get a in
  if v > m && not (Atomic.compare_and_set a m v) then bump_max a v

(* Give a slot back: its connection retired, or [accept_loop] found no
   connection to spend it on.  Either way a gated loop may now fit. *)
let retire t =
  let left = Conn_slots.release t.active in
  Array.iter (fun g -> ignore (Readiness.post g)) t.gates;
  if left = 0 && Atomic.get t.stopping then ignore (Readiness.post t.drained)

let serve_conn t fd peer =
  let c = { fd; peer; detached = false } in
  (match t.handler t.reactor c with
  | () -> Atomic.incr t.completed
  | exception _ -> Atomic.incr t.failed);
  if not c.detached then (try Unix.close fd with Unix.Unix_error _ -> ());
  retire t

(* Spawn the connection handler on the next worker round-robin (one
   lock-free fetch-and-add) -- the distributor that spreads load even
   when a single listener, or an uneven SO_REUSEPORT hash, would pin
   accepts to one place.  A lone worker (as under [Fiber.run]) has
   nothing to distribute over. *)
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

(* Backpressure: a loop waits for a pending connection first and only
   then takes a slot, for the one non-blocking accept.  With one
   SO_REUSEPORT socket per loop, a slot held across the wait would
   starve the other loops' sockets at a small [max_conns].  At capacity
   a loop parks on its own gate until [retire] frees a slot. *)
let accept_loop t i =
  let listen_fd = t.listen_fds.(i mod Array.length t.listen_fds) in
  let gate = t.gates.(i) in
  let rec go () =
    if not (Atomic.get t.stopping) then
      match Fiber_io.wait t.reactor listen_fd `R with
      | () -> take ()
      | exception Reactor.Reactor_stopped -> ()
  and take () =
    if not (Atomic.get t.stopping) then
      (* the bounded CAS of [Conn_slots]: loops racing for the last
         slot cannot breach the cap together *)
      match Conn_slots.reserve t.active ~cap:t.max_conns with
      | 0 ->
          Atomic.incr t.accept_retries;
          if Atomic.get t.active >= t.max_conns && not (Atomic.get t.stopping)
          then gate_wait gate;
          take ()
      | n -> (
          match Unix.accept ~cloexec:true listen_fd with
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
              (* another loop on a shared socket won it, or the peer
                 gave up: no connection for this slot *)
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

(* One listening socket; [reuseport] must be set before bind for the
   kernel to shard accepts across the group. *)
let make_listener ~reuseport ~backlog addr =
  let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    let rp = if reuseport then Poller.set_reuseport fd else false in
    Unix.bind fd addr;
    Unix.listen fd backlog;
    Unix.set_nonblock fd;
    (fd, rp)
  with e ->
    Unix.close fd;
    raise e

(* Binding port 0 then adding SO_REUSEPORT group members: the rest of
   the group must bind the port the kernel actually picked. *)
let concrete_addr fd = function
  | Unix.ADDR_INET (host, 0) -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> Unix.ADDR_INET (host, p)
      | a -> a)
  | a -> a

let start ~reactor ?(backlog = 128) ?(max_conns = max_int) ~addr ~handler () =
  let n_loops = Reactor.shard_count reactor in
  let fd0, rp = make_listener ~reuseport:(n_loops > 1) ~backlog addr in
  let listen_fds =
    if not rp then [| fd0 |] (* unsupported (or single loop): share fd0 *)
    else begin
      let addr = concrete_addr fd0 addr in
      let rest = ref [] in
      (try
         for _ = 2 to n_loops do
           let fd, rp' = make_listener ~reuseport:true ~backlog addr in
           if not rp' then begin
             Unix.close fd;
             failwith "SO_REUSEPORT vanished mid-group"
           end;
           rest := fd :: !rest
         done
       with e ->
         List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !rest;
         Unix.close fd0;
         raise e);
      Array.of_list (fd0 :: List.rev !rest)
    end
  in
  let port =
    match Unix.getsockname fd0 with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> 0
  in
  let t =
    {
      reactor;
      listen_fds;
      reuseport = Array.length listen_fds > 1;
      n_loops;
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
      gates = Array.init n_loops (fun _ -> Readiness.create ());
      drained = Readiness.create ();
      accept_done = [];
    }
  in
  t.accept_done <-
    List.init n_loops (fun i -> Fiber.spawn (fun () -> accept_loop t i));
  t

(* Graceful drain: stop accepting (shutdown() makes the parked accepts
   observe readiness and fail with EINVAL/EBADF), wake the gate-parked
   accept loops, then wait until every active connection retires. *)
let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Array.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.listen_fds;
    Array.iter (fun g -> ignore (Readiness.post g)) t.gates;
    List.iter Fiber.join t.accept_done;
    Array.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      t.listen_fds;
    (* connections still in flight: wait for the last to retire *)
    while Atomic.get t.active > 0 do
      gate_wait t.drained
    done
  end
