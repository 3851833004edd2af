(* The reactor: kernel fds and deadlines for every fiber of the runs
   that wait on it, with no thread of its own.

   Division of labour (the Fig. 8 overlap, for real): a worker domain
   with fibers to run never sits in epoll/poll/select.  A fiber that
   would block parks on a [Fiber.Wake] token; a worker with nothing
   left to run waits in the poller itself, one worker at a time (the
   [Fiber.Driver] turn), and on readiness or deadline fires the token.
   So a wake costs no hop between threads: the worker that polled runs
   the fiber next, as Go's netpoller and Tokio's driver park do.  Each
   turn is one round: run queued commands, wait in the poller until
   readiness, the next deadline or a poke, dispatch, fire due timers.
   The wake is routed back to the awaiting fiber's home worker's
   private inbox ([Fiber.Wake.fire_to ~worker]) instead of the global
   MPSC injection channel -- the continuation resumes on the domain
   whose cache already holds the fiber.  Within one turn the wakes
   accumulate in a [Fiber.Wake.batch] the holder flushes once: N ready
   fds cost one un-park notification per distinct worker, not N.

   A run binds the reactor at its first wait on it; a run that never
   waits here parks its workers on their condvars alone.

   On epoll a parked fiber arms its own watch: [await_fd] publishes it in
   the [Interest] table and issues the one-shot epoll_ctl from the
   worker, so a wait costs no command.  The kernel disarms a watch when
   it reports it.  poll and select cannot be armed from another thread,
   so there the fiber sends a [Watch] command the turn holder runs.
   Commands go through an MPSC queue plus a self-pipe poke (a coalescing
   atomic flag keeps it to one written byte per quiet period); on epoll
   only timers use them.  The same poke interrupts a worker waiting in
   the poller when a wake is owed to it.  Readiness handshakes go
   through [Readiness] cells -- the CAS protocol that makes the
   register-vs-wake race safe (model-checked in lib/check, as are the
   interest table and the turn).  Deadlines are absolute wall-clock
   floats in a [Timers] heap; the poller waits until the earliest one,
   and a timeout racing completing I/O resolves by CAS to exactly one
   verdict. *)

module Fiber = Fiber_rt.Fiber
module Mpsc = Fiber_rt.Mpsc_queue

type dir = [ `R | `W ]

type watch = { wfd : int; wdir : dir; cell : Readiness.t }

type cmd = Watch of watch | Unwatch of watch | Add_timer of Timers.timer

type stats = {
  polls : int;  (** poller waits: one per turn *)
  wakeups : int;  (** readiness posts that woke a waiter *)
  timers_fired : int;
  commands : int;
  errors : int;  (** turns rescued by the fallback wake *)
}

type t = {
  cmds : cmd Mpsc.t;
  poked : bool Atomic.t; (* a poke byte is already in the pipe *)
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  stopping : bool Atomic.t;
  poller : Poller.t;
  inline : bool; (* waiters arm their own watches (epoll) *)
  interest : Interest.t; (* fd -> parked watches; its own lock *)
  mutable driver : Fiber.Driver.t; (* the turn; set once by [create] *)
  (* owned by the turn holder *)
  timers : Timers.t;
  batch : Fiber.Wake.batch;
      (* waiters fired during a turn defer their worker notifications
         here; the holder flushes them once per turn *)
  drain_buf : Bytes.t;
  mutable piped : bool; (* the self-pipe was reported readable *)
  mutable timed : bool; (* timers remained at the end of the last turn *)
  mutable tid : int; (* the holder's thread id during a turn, else -1 *)
  (* counters: written by the turn holder, read by anyone *)
  n_polls : int Atomic.t;
  n_wakeups : int Atomic.t;
  n_timers : int Atomic.t;
  n_cmds : int Atomic.t;
  n_errors : int Atomic.t;
}

let now () = Fiber_rt.Clock.now ()

let max_idle_ms = 250 (* poll ceiling: leave the turn this often *)

let poke t =
  if not (Atomic.exchange t.poked true) then
    (* first poke since the last drain: one byte suffices *)
    (* ulplint: allow blocking-in-fiber -- self-pipe poke: pipe_w is O_NONBLOCK, a full pipe returns EAGAIN instead of blocking *)
    try ignore (Unix.write t.pipe_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

let send t cmd =
  Mpsc.push t.cmds cmd;
  poke t

(* Fire a wake token with routing: back to the awaiting fiber's home
   worker, batched when we hold the turn (the dispatch and timer path,
   flushed when the turn ends).  Calls outside a turn (the Was_ready
   fast path on a worker, an arm that finds its fd gone or the table
   closed) must not touch the single-owner batch. *)
let fire_routed t home tok =
  if Thread.id (Thread.self ()) = t.tid then
    ignore (Fiber.Wake.fire_to ?worker:home ~batch:t.batch tok)
  else ignore (Fiber.Wake.fire_to ?worker:home tok)

(* ---------------- the turn ---------------- *)

external fd_int : Unix.file_descr -> int = "%identity"
external fd_of_int : int -> Unix.file_descr = "%identity"

let drain_pipe t =
  let rec go () =
    (* ulplint: allow blocking-in-fiber -- draining the O_NONBLOCK self-pipe in a reactor turn; EAGAIN ends the loop *)
    match Unix.read t.pipe_r t.drain_buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let count_wakeups t n =
  if n > 0 then ignore (Atomic.fetch_and_add t.n_wakeups n)

let run_commands t =
  List.iter
    (fun cmd ->
      Atomic.incr t.n_cmds;
      match cmd with
      | Watch w -> Interest.arm t.interest w.wfd w.wdir w.cell
      | Unwatch w -> Interest.unwatch t.interest w.wfd w.cell
      | Add_timer tm ->
          (* during shutdown the final [fire_all] sweep resolves it *)
          Timers.add t.timers tm)
    (Mpsc.pop_all t.cmds)

let dispatch_event t (ev : Poller.event) =
  if fd_int ev.fd = fd_int t.pipe_r then t.piped <- true
  else
    count_wakeups t
      (Interest.fire t.interest (fd_int ev.fd) ~readable:ev.readable
         ~writable:ev.writable)

(* Last resort when a turn dies (e.g. a watched fd was closed under
   select): wake every waiter spuriously; each retries its syscall and
   surfaces its own errno. *)
let wake_everyone t =
  Atomic.incr t.n_errors;
  count_wakeups t (Interest.reset t.interest)

(* Wait until the earliest deadline, rounded up to whole milliseconds
   so the wake never precedes it; clamped in floats first, so a far or
   infinite deadline cannot overflow the int conversion. *)
let poll_timeout_ms t =
  match Timers.next_due t.timers with
  | None -> max_idle_ms
  | Some at ->
      let ms = ceil ((at -. now ()) *. 1000.) in
      if ms >= float_of_int max_idle_ms then max_idle_ms
      else if ms > 0. then int_of_float ms
      else 0

let count_timers t n =
  if n > 0 then ignore (Atomic.fetch_and_add t.n_timers n)

(* One turn, run by the worker holding the driver's turn.  [block] is
   evaluated after the pipe is drained: the worker's last check for an
   owed wake before it may sleep (Poll_park.poll). *)
let turn t ~block =
  t.tid <- Thread.id (Thread.self ());
  (try
     (* drain the pipe BEFORE clearing [poked]: a poke that writes its
        byte between a clear and a drain would have that byte drained
        while [poked] stayed true, and every later poke would skip its
        write and wait out [max_idle_ms].  In this order a poke racing
        the clear either skipped its write with its command already
        queued (run below) or writes a fresh byte for the next turn.  A
        turn with neither a poke nor a readable pipe has nothing to
        drain. *)
     if t.piped || Atomic.get t.poked then begin
       t.piped <- false;
       drain_pipe t;
       (* ulplint: allow atomic-get-then-set -- the get above only decides whether to drain: a poke whose exchange lands before this store saw true and skipped its byte, and its command, queued before that exchange, runs just below, while its owed wake is re-read by [block] *)
       Atomic.set t.poked false;
       run_commands t
     end;
     (* [shutdown] sets [stopping] before it pokes; when the drain above
        already ate that poke, nothing else would end the wait before
        [max_idle_ms] *)
     let timeout_ms =
       if Atomic.get t.stopping || not (block ()) then 0 else poll_timeout_ms t
     in
     Atomic.incr t.n_polls;
     let events = Poller.wait t.poller ~timeout_ms in
     List.iter (dispatch_event t) events;
     count_timers t (Timers.advance t.timers ~now:(now ()));
     t.timed <- Timers.next_due t.timers <> None
   with _ -> wake_everyone t);
  t.tid <- -1

(* Watches, timers or commands remain: a worker leaving the turn must
   hand it on.  [timed] was written by the last holder before it left. *)
let pending t =
  t.timed || Interest.watched t.interest > 0 || not (Mpsc.is_empty t.cmds)

(* ---------------- lifecycle ---------------- *)

(* [create]'s placeholder until the real driver closes over [t] *)
let idle_driver =
  Fiber.Driver.make ~run:(fun ~block:_ -> ()) ~flush:ignore ~poke:ignore
    ~pending:(fun () -> false)

let create ?backend () =
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let poller = Poller.create ?backend () in
  let inline = Poller.oneshot poller in
  let sync key mask =
    let fd = fd_of_int key in
    let read = mask land 1 <> 0 and write = mask land 2 <> 0 in
    if inline then
      (* mask 0: the one-shot registration disarms itself *)
      mask = 0 || Poller.arm poller fd ~read ~write
    else begin
      Poller.set poller fd ~read ~write;
      true
    end
  in
  let t =
    {
      cmds = Mpsc.create ();
      poked = Atomic.make false;
      pipe_r;
      pipe_w;
      stopping = Atomic.make false;
      poller;
      inline;
      interest = Interest.create ~sync;
      driver = idle_driver;
      timers = Timers.create ();
      batch = Fiber.Wake.batch ();
      drain_buf = Bytes.create 64;
      piped = false;
      timed = false;
      tid = -1;
      n_polls = Atomic.make 0;
      n_wakeups = Atomic.make 0;
      n_timers = Atomic.make 0;
      n_cmds = Atomic.make 0;
      n_errors = Atomic.make 0;
    }
  in
  t.driver <-
    Fiber.Driver.make ~run:(turn t)
      ~flush:(fun () -> Fiber.Wake.flush t.batch)
      ~poke:(fun () -> poke t)
      ~pending:(fun () -> pending t);
  (* persistent, not one-shot: every poke must wake the wait *)
  Poller.set poller pipe_r ~read:true ~write:false;
  t

let backend t = Poller.backend t.poller
let shard_count _ = 1

let stats t =
  {
    polls = Atomic.get t.n_polls;
    wakeups = Atomic.get t.n_wakeups;
    timers_fired = Atomic.get t.n_timers;
    commands = Atomic.get t.n_cmds;
    errors = Atomic.get t.n_errors;
  }

(* The final sweep, by the caller: it takes the turn for good, so no
   worker waits in the poller again, and nothing may stay parked on us.
   Post every cell, refuse later arms, and run every still-pending
   timer action (each action re-checks its own verdict CAS, so late
   firing is safe). *)
let shutdown t =
  if not (Atomic.exchange t.stopping true) then begin
    Fiber.Driver.close t.driver;
    t.tid <- Thread.id (Thread.self ());
    run_commands t;
    count_wakeups t (Interest.close t.interest);
    count_timers t (Timers.fire_all t.timers);
    (* commands that raced the sweep above: resolve them here *)
    List.iter
      (fun cmd ->
        match cmd with
        | Watch w -> ignore (Readiness.post w.cell)
        | Unwatch _ -> ()
        | Add_timer tm -> ignore (Timers.fire tm))
      (Mpsc.pop_all t.cmds);
    t.tid <- -1;
    Fiber.Wake.flush t.batch;
    Poller.close t.poller;
    Unix.close t.pipe_r;
    Unix.close t.pipe_w
  end

(* ---------------- fiber-side waits ---------------- *)

exception Reactor_stopped

let check_live t = if Atomic.get t.stopping then raise Reactor_stopped

(* Wait until [fd] is ready in direction [dir], or [deadline] (absolute
   wall-clock seconds) passes.  The two wakers race on [verdict]; the
   CAS winner fires the fiber's wake token, the loser's effect is
   dropped.  The wake is routed back to this worker's inbox. *)
let await_fd t ?deadline fd dir =
  check_live t;
  Fiber.Driver.bind t.driver;
  let home = Fiber.worker_index () in
  let verdict = Atomic.make `None in
  let cell = Readiness.create () in
  let timer = ref None in
  let key = fd_int fd in
  Fiber.suspend_token (fun tok ->
      let waiter () =
        if Atomic.compare_and_set verdict `None `Ready then
          fire_routed t home tok
      in
      (match Readiness.await cell waiter with
      | `Registered | `Was_ready -> ());
      (match deadline with
      | None -> ()
      | Some d ->
          let tm =
            Timers.make ~at:d (fun () ->
                if Atomic.compare_and_set verdict `None `Timeout then
                  fire_routed t home tok)
          in
          timer := Some tm;
          send t (Add_timer tm));
      if t.inline then Interest.arm t.interest key dir cell
      else send t (Watch { wfd = key; wdir = dir; cell }));
  match Atomic.get verdict with
  | `Ready ->
      (match !timer with Some tm -> ignore (Timers.cancel tm) | None -> ());
      `Ready
  | `Timeout ->
      (* the registration is dead: reclaim it (clear covers a post that
         raced the timeout) *)
      if t.inline then Interest.unwatch t.interest key cell
      else send t (Unwatch { wfd = key; wdir = dir; cell });
      Readiness.clear cell;
      `Timeout
  | `None -> assert false

let sleep_until t time =
  check_live t;
  if time > now () then begin
    Fiber.Driver.bind t.driver;
    let home = Fiber.worker_index () in
    Fiber.suspend_token (fun tok ->
        send t (Add_timer (Timers.make ~at:time (fun () -> fire_routed t home tok))))
  end

let sleep t seconds = sleep_until t (now () +. seconds)
