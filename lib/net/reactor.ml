(* The reactor: OS threads multiplexing kernel fds and deadlines for
   every fiber of the ambient runtime -- now sharded, one reactor
   thread (and one poller) per shard, so the serving stack stops
   funneling every readiness event through a single thread.

   Division of labour (the Fig. 8 overlap, for real): worker domains
   never sit in epoll/poll/select -- they run fibers.  A fiber that
   would block parks on a [Fiber.Wake] token; a reactor shard waits in
   its poller and, on readiness or deadline, fires the token.  The
   paper's KC/UC split says nothing about there being only ONE polling
   KC, so there are [shards] of them: a watch is assigned at await
   time to the shard affine to the calling worker ([worker mod
   shards]), and the wake is routed back to that worker's private
   inbox ([Fiber.Wake.fire_to ~worker]) instead of the global MPSC
   injection channel -- the continuation resumes on the domain whose
   cache already holds the fiber.  Within one poll round the shard
   accumulates wakes in a [Fiber.Wake.batch] and flushes once: N ready
   fds cost one un-park notification per distinct worker, not N.

   Communication into a shard is lock-free: an MPSC command queue plus
   a self-pipe poke (a coalescing atomic flag keeps it to one written
   byte per quiet period).  Readiness handshakes go through
   [Readiness] cells -- the CAS protocol that makes the
   register-vs-wake race safe (model-checked in lib/check, including
   the cross-shard rebind of an fd).  Deadlines are absolute wall-clock
   floats in a per-shard [Timers] heap; the poller waits until the
   earliest one, and a timeout racing completing I/O resolves by CAS to
   exactly one verdict. *)

module Fiber = Fiber_rt.Fiber
module Mpsc = Fiber_rt.Mpsc_queue

type dir = [ `R | `W ]

type watch = { wfd : Unix.file_descr; wdir : dir; cell : Readiness.t }

type cmd = Watch of watch | Unwatch of watch | Add_timer of Timers.timer

type stats = {
  polls : int;  (** poller wait rounds, summed over shards *)
  wakeups : int;  (** readiness posts that woke a waiter *)
  timers_fired : int;
  commands : int;
  errors : int;  (** reactor-loop rounds rescued by the fallback wake *)
  shards : int;
}

type shard = {
  sid : int;
  poller : Poller.t;
  cmds : cmd Mpsc.t;
  poked : bool Atomic.t; (* a poke byte is already in the pipe *)
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  batch : Fiber.Wake.batch;
      (* owned by the shard thread: waiters fired during a poll round
         defer their worker notifications here; flushed once per round *)
  mutable tid : int; (* the shard thread's id, written at loop start *)
  mutable thread : Thread.t option;
}

type t = {
  shards : shard array;
  rr : int Atomic.t; (* round-robin for callers with no worker affinity *)
  stopping : bool Atomic.t;
  (* counters: written by shard threads, read by anyone *)
  n_polls : int Atomic.t;
  n_wakeups : int Atomic.t;
  n_timers : int Atomic.t;
  n_cmds : int Atomic.t;
  n_errors : int Atomic.t;
}

let now () = Fiber_rt.Clock.now ()

let max_idle_ms = 250 (* poll ceiling: re-check stopping this often *)

let send sh cmd =
  Mpsc.push sh.cmds cmd;
  if not (Atomic.exchange sh.poked true) then
    (* first poke since the shard last drained: one byte suffices *)
    (* ulplint: allow blocking-in-fiber -- self-pipe poke: pipe_w is O_NONBLOCK, a full pipe returns EAGAIN instead of blocking *)
    try ignore (Unix.write sh.pipe_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

(* The shard a watch from this calling context lands on: worker w of
   the fiber runtime maps to shard [w mod shards] (with shards =
   domains this is the one-reactor-per-domain topology, and every
   fiber under [Fiber.run] is worker 0); callers with no affinity --
   foreign threads -- are spread round-robin. *)
let shard_for t =
  let n = Array.length t.shards in
  if n = 1 then t.shards.(0)
  else
    match Fiber.worker_index () with
    | Some w -> t.shards.(w mod n)
    | None -> t.shards.(Atomic.fetch_and_add t.rr 1 mod n)

(* Fire a wake token with routing: back to the awaiting fiber's home
   worker, batched when we are on the shard's own thread (the poll-round
   dispatch path -- flushed before the next poller wait).  Off-thread
   invocations (the Was_ready fast path on a worker, shutdown stragglers
   after the shard joined) must not touch the single-owner batch. *)
let fire_routed sh home tok =
  if Thread.id (Thread.self ()) = sh.tid then
    ignore (Fiber.Wake.fire_to ?worker:home ~batch:sh.batch tok)
  else ignore (Fiber.Wake.fire_to ?worker:home tok)

(* ---------------- the shard threads ---------------- *)

type state = {
  r : t;
  sh : shard;
  timers : Timers.t;
  interest : (int, watch list) Hashtbl.t; (* raw fd -> live watches *)
}

external fd_int : Unix.file_descr -> int = "%identity"
external fd_of_int : int -> Unix.file_descr = "%identity"

let drain_pipe st =
  let buf = Bytes.create 64 in
  let rec go () =
    (* ulplint: allow blocking-in-fiber -- draining the O_NONBLOCK self-pipe on the reactor thread; EAGAIN ends the loop *)
    match Unix.read st.sh.pipe_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let post_watch st w =
  match Readiness.post w.cell with
  | `Woke -> Atomic.incr st.r.n_wakeups
  | `Memo | `Already -> ()

(* Push the union mask of [key]'s live watches into the poller.  Called
   on EVERY watch arm -- even an unchanged mask -- because the epoll
   backend's MOD re-checks readiness, which is what redelivers an edge
   consumed before this watch registered. *)
let sync_poller st key =
  match Hashtbl.find_opt st.interest key with
  | None | Some [] ->
      Hashtbl.remove st.interest key;
      Poller.set st.sh.poller (fd_of_int key) ~read:false ~write:false
  | Some ws ->
      let r = List.exists (fun w -> w.wdir = `R) ws in
      let wr = List.exists (fun w -> w.wdir = `W) ws in
      Poller.set st.sh.poller (fd_of_int key) ~read:r ~write:wr

let run_commands st =
  List.iter
    (fun cmd ->
      Atomic.incr st.r.n_cmds;
      match cmd with
      | Watch w ->
          if Atomic.get st.r.stopping then post_watch st w
          else begin
            let key = fd_int w.wfd in
            let cur = Option.value ~default:[] (Hashtbl.find_opt st.interest key) in
            Hashtbl.replace st.interest key (w :: cur);
            sync_poller st key
          end
      | Unwatch w -> (
          let key = fd_int w.wfd in
          match Hashtbl.find_opt st.interest key with
          | None -> ()
          | Some ws ->
              (match List.filter (fun w' -> w'.cell != w.cell) ws with
              | [] -> Hashtbl.remove st.interest key
              | ws' -> Hashtbl.replace st.interest key ws');
              sync_poller st key)
      | Add_timer tm ->
          (* during shutdown the post-loop [fire_all] sweep resolves it *)
          Timers.add st.timers tm)
    (Mpsc.pop_all st.sh.cmds)

let dispatch_event st (ev : Poller.event) =
  if fd_int ev.fd = fd_int st.sh.pipe_r then drain_pipe st
  else
    let key = fd_int ev.fd in
    match Hashtbl.find_opt st.interest key with
    | None -> ()
    | Some ws ->
        let fires w =
          match w.wdir with `R -> ev.readable | `W -> ev.writable
        in
        let woken, kept = List.partition fires ws in
        List.iter (post_watch st) woken;
        if woken <> [] then begin
          (match kept with
          | [] -> Hashtbl.remove st.interest key
          | ws' -> Hashtbl.replace st.interest key ws');
          sync_poller st key
        end

(* Last resort when a poller round dies (e.g. a watched fd was closed
   under select): wake every waiter of this shard spuriously; each
   retries its syscall and surfaces its own errno. *)
let wake_everyone st =
  Atomic.incr st.r.n_errors;
  Hashtbl.iter
    (fun key ws ->
      List.iter (post_watch st) ws;
      Poller.set st.sh.poller (fd_of_int key) ~read:false ~write:false)
    st.interest;
  Hashtbl.reset st.interest

(* Wait until the earliest deadline, rounded up to whole milliseconds
   so the wake never precedes it; clamped in floats first, so a far or
   infinite deadline cannot overflow the int conversion. *)
let poll_timeout_ms st =
  match Timers.next_due st.timers with
  | None -> max_idle_ms
  | Some at ->
      let ms = ceil ((at -. now ()) *. 1000.) in
      if ms >= float_of_int max_idle_ms then max_idle_ms
      else if ms > 0. then int_of_float ms
      else 0

let shard_loop st =
  st.sh.tid <- Thread.id (Thread.self ());
  Poller.set st.sh.poller st.sh.pipe_r ~read:true ~write:false;
  while not (Atomic.get st.r.stopping) do
    (try
       (* drain the pipe BEFORE clearing [poked]: a [send] that writes
          its byte between a clear and a drain would have that byte
          drained while [poked] stayed true, and every later send would
          skip its write and wait out [max_idle_ms].  In this order a
          send racing the clear either skipped its write with its
          command already queued (run below) or writes a fresh byte for
          the next round. *)
       drain_pipe st;
       Atomic.set st.sh.poked false;
       run_commands st;
       let fired = Timers.advance st.timers ~now:(now ()) in
       if fired > 0 then ignore (Atomic.fetch_and_add st.r.n_timers fired);
       (* [shutdown] sets [stopping] before it pokes; when the drain
          above already ate that poke, nothing else would end the wait
          before [max_idle_ms] *)
       let timeout_ms =
         if Atomic.get st.r.stopping then 0 else poll_timeout_ms st
       in
       Atomic.incr st.r.n_polls;
       let events = Poller.wait st.sh.poller ~timeout_ms in
       List.iter (dispatch_event st) events;
       (* one flush per round: deliver the batched worker notifications
          before blocking again *)
       Fiber.Wake.flush st.sh.batch
     with _ ->
       wake_everyone st;
       Fiber.Wake.flush st.sh.batch)
  done;
  (* shutdown: nothing may stay parked on us.  Post every cell and run
     every still-pending timer action (each action re-checks its own
     verdict CAS, so late firing is safe). *)
  run_commands st;
  Hashtbl.iter (fun _ ws -> List.iter (post_watch st) ws) st.interest;
  Hashtbl.reset st.interest;
  let swept = Timers.fire_all st.timers in
  if swept > 0 then ignore (Atomic.fetch_and_add st.r.n_timers swept);
  Fiber.Wake.flush st.sh.batch;
  Poller.close st.sh.poller

(* ---------------- lifecycle ---------------- *)

let create ?backend ?shards () =
  (* default shard count follows the host's real parallelism, not a
     fixed 1: each shard is an OS thread, and like the fiber engine's
     worker pool there is nothing to gain from more pollers than
     cores *)
  let shards =
    match shards with
    | Some s -> s
    | None -> Domain.recommended_domain_count ()
  in
  if shards < 1 then invalid_arg "Reactor.create: shards must be >= 1";
  let mk_shard sid =
    let pipe_r, pipe_w = Unix.pipe () in
    Unix.set_nonblock pipe_r;
    Unix.set_nonblock pipe_w;
    {
      sid;
      poller = Poller.create ?backend ();
      cmds = Mpsc.create ();
      poked = Atomic.make false;
      pipe_r;
      pipe_w;
      batch = Fiber.Wake.batch ();
      tid = -1;
      thread = None;
    }
  in
  let t =
    {
      shards = Array.init shards mk_shard;
      rr = Atomic.make 0;
      stopping = Atomic.make false;
      n_polls = Atomic.make 0;
      n_wakeups = Atomic.make 0;
      n_timers = Atomic.make 0;
      n_cmds = Atomic.make 0;
      n_errors = Atomic.make 0;
    }
  in
  Array.iter
    (fun sh ->
      let st =
        { r = t; sh; timers = Timers.create (); interest = Hashtbl.create 64 }
      in
      sh.thread <- Some (Thread.create shard_loop st))
    t.shards;
  t

let backend t = Poller.backend t.shards.(0).poller
let shard_count t = Array.length t.shards

let stats t =
  {
    polls = Atomic.get t.n_polls;
    wakeups = Atomic.get t.n_wakeups;
    timers_fired = Atomic.get t.n_timers;
    commands = Atomic.get t.n_cmds;
    errors = Atomic.get t.n_errors;
    shards = Array.length t.shards;
  }

let shutdown t =
  if not (Atomic.exchange t.stopping true) then begin
    Array.iter
      (fun sh ->
        (* direct poke: the coalescing flag may already be true *)
        (* ulplint: allow blocking-in-fiber -- shutdown poke on the O_NONBLOCK self-pipe; EAGAIN means a poke is already pending *)
        try ignore (Unix.write sh.pipe_w (Bytes.make 1 '!') 0 1)
        with Unix.Unix_error _ -> ())
      t.shards;
    Array.iter
      (fun sh ->
        (match sh.thread with Some th -> Thread.join th | None -> ());
        sh.thread <- None)
      t.shards;
    (* commands that raced a shard's final drain: resolve here so no
       fiber stays parked on a dead reactor *)
    Array.iter
      (fun sh ->
        List.iter
          (fun cmd ->
            match cmd with
            | Watch w -> ignore (Readiness.post w.cell)
            | Unwatch _ -> ()
            | Add_timer tm -> ignore (Timers.fire tm))
          (Mpsc.pop_all sh.cmds);
        Unix.close sh.pipe_r;
        Unix.close sh.pipe_w)
      t.shards
  end

(* ---------------- fiber-side waits ---------------- *)

exception Reactor_stopped

let check_live t = if Atomic.get t.stopping then raise Reactor_stopped

(* Wait until [fd] is ready in direction [dir], or [deadline] (absolute
   wall-clock seconds) passes.  The two wakers race on [verdict]; the
   CAS winner fires the fiber's wake token, the loser's effect is
   dropped.  The watch goes to the shard affine to this worker and the
   wake is routed back to this worker's inbox. *)
let await_fd t ?deadline fd dir =
  check_live t;
  let sh = shard_for t in
  let home = Fiber.worker_index () in
  let verdict = Atomic.make `None in
  let cell = Readiness.create () in
  let timer = ref None in
  Fiber.suspend_token (fun tok ->
      let waiter () =
        if Atomic.compare_and_set verdict `None `Ready then
          fire_routed sh home tok
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
          send sh (Add_timer tm));
      send sh (Watch { wfd = fd; wdir = dir; cell }));
  match Atomic.get verdict with
  | `Ready ->
      (match !timer with Some tm -> ignore (Timers.cancel tm) | None -> ());
      `Ready
  | `Timeout ->
      (* the registration is dead: reclaim it (the shard drops the
         table entry; clear covers a post that raced the timeout) *)
      send sh (Unwatch { wfd = fd; wdir = dir; cell });
      Readiness.clear cell;
      `Timeout
  | `None -> assert false

let sleep_until t time =
  check_live t;
  if time > now () then
    Fiber.suspend_token (fun tok ->
        send (shard_for t)
          (Add_timer (Timers.make ~at:time (fun () -> ignore (Fiber.Wake.fire tok)))))

let sleep t seconds = sleep_until t (now () +. seconds)
