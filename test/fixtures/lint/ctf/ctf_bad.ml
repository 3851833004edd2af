(* Fixture: the check-then-act shape -- a compared Atomic.get, then a
   fetch_and_add on the same atomic with no CAS between.
   atomic-check-then-faa must flag the add.  [accept_loop] is the
   Tcp_server accept loop from before its max_conns slot became a
   bounded CAS: two per-shard loops both read [active < max_conns],
   both accept, and both add one. *)

let accept_loop t i =
  let listen_fd = t.listen_fds.(i mod Array.length t.listen_fds) in
  let gate = t.gates.(i) in
  let rec go () =
    if not (Atomic.get t.stopping) then begin
      (* backpressure: hold accepts while at capacity *)
      if Atomic.get t.active >= t.max_conns then begin
        Atomic.incr t.accept_retries;
        if Atomic.get t.active >= t.max_conns && not (Atomic.get t.stopping)
        then gate_wait gate;
        go ()
      end
      else
        match Fiber_io.accept t.reactor listen_fd with
        | conn_fd, peer ->
            Atomic.incr t.accepted;
            let n = Atomic.fetch_and_add t.active 1 + 1 in
            bump_max t.max_active n;
            spawn_handler t conn_fd peer;
            go ()
        | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
        | exception Reactor.Reactor_stopped -> ()
    end
  in
  go ()

(* the same race through a let-bound read, with incr *)
let take_ticket c ~limit =
  let n = Atomic.get c in
  if n < limit then begin
    Atomic.incr c;
    true
  end
  else false
