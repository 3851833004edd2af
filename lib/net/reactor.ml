(* The reactor: kernel fds and deadlines for every fiber of the runs
   that wait on it, with no thread of its own.

   Division of labour (the Fig. 8 overlap, for real): a worker domain
   with fibers to run never sits in epoll_wait.  A fiber that
   would block parks on a [Fiber.Wake] token; a worker with nothing
   left to run waits in the poller itself, one worker at a time (the
   [Fiber.Driver] turn), and on readiness or deadline fires the token.
   So a wake costs no hop between threads: the worker that polled runs
   the fiber next, as Go's netpoller and Tokio's driver park do.  Each
   turn is one round: run queued commands, wait in the poller until
   readiness, the next deadline or a poke, dispatch, fire due timers.
   A wake is [Fiber.Wake.fire]: the engine routes the
   continuation back to the worker that parked the fiber, onto the
   turn holder's own queue or into a peer's private inbox, and the
   holder notifies each woken peer once when its turn ends -- N ready
   fds cost at most one un-park notification per worker, not N.

   A run binds the reactor at its first wait on it; a run that never
   waits here parks its workers on their parkers alone.

   A parked fiber publishes its own watch in the [Interest] table from
   its worker, so a wait costs no command.  Each fd is registered with
   the poller once, edge-triggered; an edge that arrives while no watch
   of its direction is parked stays pending in the table, and a wait
   right after EAGAIN ([await_edge]) takes it or parks under the same
   lock, with no syscall.  A wait that did not just see EAGAIN
   ([await_fd]) re-arms the registration with one modify, which
   reports an fd already ready.  Only timers are commands: an MPSC
   queue plus a self-pipe poke (a coalescing atomic flag keeps it to
   one written byte per quiet period).  The same poke interrupts a
   worker waiting in the poller when a wake is owed to it.  The
   table's lock makes the park-vs-report race safe (model-checked in
   lib/check, as is the turn), and a watch is woken at most once.
   Deadlines are absolute wall-clock floats in a [Timers] heap; the
   poller waits until the earliest one.  A wait's watch and its
   deadline timer are its only contenders, and one verdict CAS between
   them picks exactly one outcome.

   The kernel drops a closed fd's registration without a report and
   reuses its number at once, so a waited fd is closed through
   [Fiber_io.close], which first [forget]s it in every live reactor. *)

module Fiber = Fiber_rt.Fiber
module Mpsc = Fiber_rt.Mpsc_queue

type dir = [ `R | `W ]

type stats = {
  polls : int;  (** poller waits: one per turn *)
  wakeups : int;  (** watches woken by readiness, reset or shutdown *)
  timers_fired : int;
  commands : int;
  registrations : int;  (** epoll_ctl adds and modifies *)
  errors : int;  (** turns rescued by the fallback wake *)
}

type t = {
  cmds : Timers.timer Mpsc.t; (* the commands: timers to add *)
  poked : bool Atomic.t; (* a poke byte is already in the pipe *)
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  stopping : bool Atomic.t;
  poller : Poller.t;
  interest : Interest.t; (* fd -> parked watches; its own lock *)
  mutable driver : Fiber.Driver.t; (* the turn; set once by [create] *)
  (* owned by the turn holder *)
  timers : Timers.t;
  drain_buf : Bytes.t;
  mutable piped : bool; (* the self-pipe was reported readable *)
  mutable timed : bool; (* timers remained at the end of the last turn *)
  (* counters: written by the turn holder, read by anyone *)
  n_polls : int Atomic.t;
  n_wakeups : int Atomic.t;
  n_timers : int Atomic.t;
  n_cmds : int Atomic.t;
  n_regs : int Atomic.t;
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

let add_timer t tm =
  Mpsc.push t.cmds tm;
  poke t

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
    (fun tm ->
      Atomic.incr t.n_cmds;
      (* during shutdown the final [fire_all] sweep resolves it *)
      Timers.add t.timers tm)
    (Mpsc.pop_all t.cmds)

let dispatch_event t (ev : Poller.event) =
  if fd_int ev.fd = fd_int t.pipe_r then t.piped <- true
  else
    count_wakeups t
      (Interest.fire t.interest (fd_int ev.fd) ~readable:ev.readable
         ~writable:ev.writable)

(* Last resort when a turn dies: wake every waiter spuriously; each
   retries its syscall and surfaces its own errno. *)
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
  try
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
  with _ -> wake_everyone t

(* Watches, timers or commands remain: a worker leaving the turn must
   hand it on.  [timed] was written by the last holder before it left. *)
let pending t =
  t.timed || Interest.watched t.interest > 0 || not (Mpsc.is_empty t.cmds)

(* ---------------- lifecycle ---------------- *)

(* [create]'s placeholder until the real driver closes over [t] *)
let idle_driver =
  Fiber.Driver.make ~run:(fun ~block:_ -> ()) ~poke:ignore ~pending:(fun () -> false)

(* Every reactor not yet shut down: [forget] reaches them all. *)
let live : t list Atomic.t = Atomic.make []

let rec update_live f =
  let cur = Atomic.get live in
  if not (Atomic.compare_and_set live cur (f cur)) then update_live f

let create () =
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let poller = Poller.create () in
  let n_regs = Atomic.make 0 in
  let register key ~was mask =
    let fd = fd_of_int key and write = mask land 2 <> 0 in
    if mask = 0 then (
      Poller.remove poller fd;
      true)
    else begin
      Atomic.incr n_regs;
      if was = 0 then Poller.add poller fd ~write
      else Poller.modify poller fd ~write
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
      interest = Interest.create ~register;
      driver = idle_driver;
      timers = Timers.create ();
      drain_buf = Bytes.create 64;
      piped = false;
      timed = false;
      n_polls = Atomic.make 0;
      n_wakeups = Atomic.make 0;
      n_timers = Atomic.make 0;
      n_cmds = Atomic.make 0;
      n_regs;
      n_errors = Atomic.make 0;
    }
  in
  t.driver <-
    Fiber.Driver.make ~run:(turn t) ~poke:(fun () -> poke t) ~pending:(fun () -> pending t);
  (* edge-triggered like every fd: a turn drains the pipe whenever it was
     reported or poked, and a byte written into a pipe not yet drained
     sits behind one whose report is queued or already recorded in
     [piped] *)
  ignore (Poller.add poller pipe_r ~write:false);
  update_live (fun l -> t :: l);
  t

let backend _ = `Epoll
let shard_count _ = 1

let forget fd =
  List.iter (fun t -> Interest.forget t.interest (fd_int fd)) (Atomic.get live)

let stats t =
  {
    polls = Atomic.get t.n_polls;
    wakeups = Atomic.get t.n_wakeups;
    timers_fired = Atomic.get t.n_timers;
    commands = Atomic.get t.n_cmds;
    registrations = Atomic.get t.n_regs;
    errors = Atomic.get t.n_errors;
  }

(* The final sweep, by the caller: it takes the turn for good, so no
   worker waits in the poller again, and nothing may stay parked on us.
   Wake every watch, refuse later arms, and run every still-pending
   timer action (each action re-checks its own verdict CAS, so late
   firing is safe). *)
let shutdown t =
  if not (Atomic.exchange t.stopping true) then begin
    update_live (List.filter (fun r -> r != t));
    Fiber.Driver.close t.driver;
    run_commands t;
    count_wakeups t (Interest.close t.interest);
    count_timers t (Timers.fire_all t.timers);
    (* commands that raced the sweep above: resolve them here *)
    List.iter
      (fun tm -> ignore (Timers.fire tm))
      (Mpsc.pop_all t.cmds);
    Poller.close t.poller;
    Unix.close t.pipe_r;
    Unix.close t.pipe_w
  end

(* ---------------- fiber-side waits ---------------- *)

exception Reactor_stopped

let check_live t = if Atomic.get t.stopping then raise Reactor_stopped

(* Wait until [fd] is ready in direction [dir], or [deadline] (absolute
   wall-clock seconds) passes.  The watch and the timer race on
   [verdict]; the CAS winner fires the fiber's wake token home, and
   the loser does nothing.  [rearm]: see [Interest.arm]. *)
let await t ~rearm ?deadline fd dir =
  check_live t;
  Fiber.Driver.bind t.driver;
  let verdict = Atomic.make `None in
  let watch = ref None and timer = ref None in
  let key = fd_int fd in
  Fiber.suspend_token (fun tok ->
      let claim v () =
        if Atomic.compare_and_set verdict `None v then ignore (Fiber.Wake.fire tok)
      in
      (match deadline with
      | None -> ()
      | Some d ->
          let tm = Timers.make ~at:d (claim `Timeout) in
          timer := Some tm;
          add_timer t tm);
      let w = { Interest.dir; wake = claim `Ready } in
      watch := Some w;
      Interest.arm t.interest key w ~rearm);
  match Atomic.get verdict with
  | `Ready ->
      Option.iter (fun tm -> ignore (Timers.cancel tm)) !timer;
      `Ready
  | `Timeout ->
      (* the watch is dead: reclaim it *)
      Option.iter (Interest.unwatch t.interest key) !watch;
      `Timeout
  | `None -> assert false

let await_fd t ?deadline fd dir = await t ~rearm:true ?deadline fd dir
let await_edge t ?deadline fd dir = await t ~rearm:false ?deadline fd dir

let sleep_until t time =
  check_live t;
  if time > now () then begin
    Fiber.Driver.bind t.driver;
    Fiber.suspend_token (fun tok ->
        add_timer t (Timers.make ~at:time (fun () -> ignore (Fiber.Wake.fire tok))))
  end

let sleep t seconds = sleep_until t (now () +. seconds)
