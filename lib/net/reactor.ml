(* The reactor: one OS thread multiplexing kernel fds and deadlines for
   every fiber of the ambient runtime.

   Division of labour (the Fig. 8 overlap, for real): worker domains
   never sit in epoll/poll/select -- they run fibers.  A fiber that
   would block parks on a [Fiber.Wake] token; the reactor thread waits
   in its poller and, on readiness or deadline, fires the token.  Like
   the paper's one dedicated syscall core, one polling thread serves
   every worker.  The wake is routed back to the awaiting fiber's home
   worker's private inbox ([Fiber.Wake.fire_to ~worker]) instead of the
   global MPSC injection channel -- the continuation resumes on the
   domain whose cache already holds the fiber.  Within one poll round
   the reactor accumulates wakes in a [Fiber.Wake.batch] and flushes
   once: N ready fds cost one un-park notification per distinct worker,
   not N.

   Communication into the reactor is lock-free: an MPSC command queue
   plus a self-pipe poke (a coalescing atomic flag keeps it to one
   written byte per quiet period).  Readiness handshakes go through
   [Readiness] cells -- the CAS protocol that makes the
   register-vs-wake race safe (model-checked in lib/check).  Deadlines
   are absolute wall-clock floats in a [Timers] heap; the poller waits
   until the earliest one, and a timeout racing completing I/O resolves
   by CAS to exactly one verdict. *)

module Fiber = Fiber_rt.Fiber
module Mpsc = Fiber_rt.Mpsc_queue

type dir = [ `R | `W ]

type watch = { wfd : Unix.file_descr; wdir : dir; cell : Readiness.t }

type cmd = Watch of watch | Unwatch of watch | Add_timer of Timers.timer

type stats = {
  polls : int;  (** poller wait rounds *)
  wakeups : int;  (** readiness posts that woke a waiter *)
  timers_fired : int;
  commands : int;
  errors : int;  (** reactor-loop rounds rescued by the fallback wake *)
}

type t = {
  cmds : cmd Mpsc.t;
  poked : bool Atomic.t; (* a poke byte is already in the pipe *)
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  stopping : bool Atomic.t;
  mutable thread : Thread.t option; (* set by [create], joined by [shutdown] *)
  (* owned by the reactor thread *)
  poller : Poller.t;
  timers : Timers.t;
  interest : (int, watch list) Hashtbl.t; (* raw fd -> live watches *)
  batch : Fiber.Wake.batch;
      (* waiters fired during a poll round defer their worker
         notifications here; flushed once per round *)
  mutable tid : int; (* the reactor thread's id, written at loop start *)
  (* counters: written by the reactor thread, read by anyone *)
  n_polls : int Atomic.t;
  n_wakeups : int Atomic.t;
  n_timers : int Atomic.t;
  n_cmds : int Atomic.t;
  n_errors : int Atomic.t;
}

let now () = Fiber_rt.Clock.now ()

let max_idle_ms = 250 (* poll ceiling: re-check stopping this often *)

let send t cmd =
  Mpsc.push t.cmds cmd;
  if not (Atomic.exchange t.poked true) then
    (* first poke since the reactor last drained: one byte suffices *)
    (* ulplint: allow blocking-in-fiber -- self-pipe poke: pipe_w is O_NONBLOCK, a full pipe returns EAGAIN instead of blocking *)
    try ignore (Unix.write t.pipe_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

(* Fire a wake token with routing: back to the awaiting fiber's home
   worker, batched when we are on the reactor's own thread (the
   poll-round dispatch path -- flushed before the next poller wait).
   Off-thread invocations (the Was_ready fast path on a worker,
   shutdown stragglers after the thread joined) must not touch the
   single-owner batch. *)
let fire_routed t home tok =
  if Thread.id (Thread.self ()) = t.tid then
    ignore (Fiber.Wake.fire_to ?worker:home ~batch:t.batch tok)
  else ignore (Fiber.Wake.fire_to ?worker:home tok)

(* ---------------- the reactor thread ---------------- *)

external fd_int : Unix.file_descr -> int = "%identity"
external fd_of_int : int -> Unix.file_descr = "%identity"

let drain_pipe t =
  let buf = Bytes.create 64 in
  let rec go () =
    (* ulplint: allow blocking-in-fiber -- draining the O_NONBLOCK self-pipe on the reactor thread; EAGAIN ends the loop *)
    match Unix.read t.pipe_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let post_watch t w =
  match Readiness.post w.cell with
  | `Woke -> Atomic.incr t.n_wakeups
  | `Memo | `Already -> ()

(* Push the union mask of [key]'s live watches into the poller.  Called
   on EVERY watch arm -- even an unchanged mask -- because the epoll
   backend's MOD re-checks readiness, which is what redelivers an edge
   consumed before this watch registered. *)
let sync_poller t key =
  match Hashtbl.find_opt t.interest key with
  | None | Some [] ->
      Hashtbl.remove t.interest key;
      Poller.set t.poller (fd_of_int key) ~read:false ~write:false
  | Some ws ->
      let r = List.exists (fun w -> w.wdir = `R) ws in
      let wr = List.exists (fun w -> w.wdir = `W) ws in
      Poller.set t.poller (fd_of_int key) ~read:r ~write:wr

let run_commands t =
  List.iter
    (fun cmd ->
      Atomic.incr t.n_cmds;
      match cmd with
      | Watch w ->
          if Atomic.get t.stopping then post_watch t w
          else begin
            let key = fd_int w.wfd in
            let cur = Option.value ~default:[] (Hashtbl.find_opt t.interest key) in
            Hashtbl.replace t.interest key (w :: cur);
            sync_poller t key
          end
      | Unwatch w -> (
          let key = fd_int w.wfd in
          match Hashtbl.find_opt t.interest key with
          | None -> ()
          | Some ws ->
              (match List.filter (fun w' -> w'.cell != w.cell) ws with
              | [] -> Hashtbl.remove t.interest key
              | ws' -> Hashtbl.replace t.interest key ws');
              sync_poller t key)
      | Add_timer tm ->
          (* during shutdown the post-loop [fire_all] sweep resolves it *)
          Timers.add t.timers tm)
    (Mpsc.pop_all t.cmds)

let dispatch_event t (ev : Poller.event) =
  if fd_int ev.fd = fd_int t.pipe_r then drain_pipe t
  else
    let key = fd_int ev.fd in
    match Hashtbl.find_opt t.interest key with
    | None -> ()
    | Some ws ->
        let fires w =
          match w.wdir with `R -> ev.readable | `W -> ev.writable
        in
        let woken, kept = List.partition fires ws in
        List.iter (post_watch t) woken;
        if woken <> [] then begin
          (match kept with
          | [] -> Hashtbl.remove t.interest key
          | ws' -> Hashtbl.replace t.interest key ws');
          sync_poller t key
        end

(* Last resort when a poller round dies (e.g. a watched fd was closed
   under select): wake every waiter spuriously; each retries its
   syscall and surfaces its own errno. *)
let wake_everyone t =
  Atomic.incr t.n_errors;
  Hashtbl.iter
    (fun key ws ->
      List.iter (post_watch t) ws;
      Poller.set t.poller (fd_of_int key) ~read:false ~write:false)
    t.interest;
  Hashtbl.reset t.interest

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

let reactor_loop t =
  t.tid <- Thread.id (Thread.self ());
  Poller.set t.poller t.pipe_r ~read:true ~write:false;
  while not (Atomic.get t.stopping) do
    (try
       (* drain the pipe BEFORE clearing [poked]: a [send] that writes
          its byte between a clear and a drain would have that byte
          drained while [poked] stayed true, and every later send would
          skip its write and wait out [max_idle_ms].  In this order a
          send racing the clear either skipped its write with its
          command already queued (run below) or writes a fresh byte for
          the next round. *)
       drain_pipe t;
       Atomic.set t.poked false;
       run_commands t;
       let fired = Timers.advance t.timers ~now:(now ()) in
       if fired > 0 then ignore (Atomic.fetch_and_add t.n_timers fired);
       (* [shutdown] sets [stopping] before it pokes; when the drain
          above already ate that poke, nothing else would end the wait
          before [max_idle_ms] *)
       let timeout_ms =
         if Atomic.get t.stopping then 0 else poll_timeout_ms t
       in
       Atomic.incr t.n_polls;
       let events = Poller.wait t.poller ~timeout_ms in
       List.iter (dispatch_event t) events;
       (* one flush per round: deliver the batched worker notifications
          before blocking again *)
       Fiber.Wake.flush t.batch
     with _ ->
       wake_everyone t;
       Fiber.Wake.flush t.batch)
  done;
  (* shutdown: nothing may stay parked on us.  Post every cell and run
     every still-pending timer action (each action re-checks its own
     verdict CAS, so late firing is safe). *)
  run_commands t;
  Hashtbl.iter (fun _ ws -> List.iter (post_watch t) ws) t.interest;
  Hashtbl.reset t.interest;
  let swept = Timers.fire_all t.timers in
  if swept > 0 then ignore (Atomic.fetch_and_add t.n_timers swept);
  Fiber.Wake.flush t.batch;
  Poller.close t.poller

(* ---------------- lifecycle ---------------- *)

let create ?backend () =
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let t =
    {
      cmds = Mpsc.create ();
      poked = Atomic.make false;
      pipe_r;
      pipe_w;
      stopping = Atomic.make false;
      thread = None;
      poller = Poller.create ?backend ();
      timers = Timers.create ();
      interest = Hashtbl.create 64;
      batch = Fiber.Wake.batch ();
      tid = -1;
      n_polls = Atomic.make 0;
      n_wakeups = Atomic.make 0;
      n_timers = Atomic.make 0;
      n_cmds = Atomic.make 0;
      n_errors = Atomic.make 0;
    }
  in
  t.thread <- Some (Thread.create reactor_loop t);
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

let shutdown t =
  if not (Atomic.exchange t.stopping true) then begin
    (* direct poke: the coalescing flag may already be true *)
    (* ulplint: allow blocking-in-fiber -- shutdown poke on the O_NONBLOCK self-pipe; EAGAIN means a poke is already pending *)
    (try ignore (Unix.write t.pipe_w (Bytes.make 1 '!') 0 1)
     with Unix.Unix_error _ -> ());
    (match t.thread with Some th -> Thread.join th | None -> ());
    t.thread <- None;
    (* commands that raced the reactor's final drain: resolve here so
       no fiber stays parked on a dead reactor *)
    List.iter
      (fun cmd ->
        match cmd with
        | Watch w -> ignore (Readiness.post w.cell)
        | Unwatch _ -> ()
        | Add_timer tm -> ignore (Timers.fire tm))
      (Mpsc.pop_all t.cmds);
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
  let home = Fiber.worker_index () in
  let verdict = Atomic.make `None in
  let cell = Readiness.create () in
  let timer = ref None in
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
                  ignore (Fiber.Wake.fire tok))
          in
          timer := Some tm;
          send t (Add_timer tm));
      send t (Watch { wfd = fd; wdir = dir; cell }));
  match Atomic.get verdict with
  | `Ready ->
      (match !timer with Some tm -> ignore (Timers.cancel tm) | None -> ());
      `Ready
  | `Timeout ->
      (* the registration is dead: reclaim it (the reactor drops the
         table entry; clear covers a post that raced the timeout) *)
      send t (Unwatch { wfd = fd; wdir = dir; cell });
      Readiness.clear cell;
      `Timeout
  | `None -> assert false

let sleep_until t time =
  check_live t;
  if time > now () then
    Fiber.suspend_token (fun tok ->
        send t
          (Add_timer (Timers.make ~at:time (fun () -> ignore (Fiber.Wake.fire tok)))))

let sleep t seconds = sleep_until t (now () +. seconds)
