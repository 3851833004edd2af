(* A real cooperative fiber runtime on OCaml effect handlers: user
   contexts as one-shot continuations, with a thread-safe wake path so
   other OS threads (the original KCs of [Blt_rt]) can resume suspended
   fibers on the worker that parked them.

   One engine, the Section VII M:N extension made real on OCaml 5
   domains: [run_parallel ~domains:n] runs n workers, and [run] is the
   same engine with one worker.  Each worker owns a Chase-Lev
   [Atomic_deque] (LIFO owner pop, FIFO steal-half batches) plus a
   private overflow FIFO for its own yields and a private MPSC inbox
   for what other threads deliver to it -- a wake fired off the run's
   workers returns its fiber to the worker that parked it, so a
   decoupled fiber goes back to the scheduler it left; fiber
   completion is the lock-free [Completion] cell; and
   an idle worker parks at once on a Treiber stack ([Idle_waker]) so
   one ready task wakes exactly one worker (the blocking idle-KC policy
   of the paper's Table II, without the thundering herd).  Workers
   beyond the host's cores start unlaunched: only a delivery aimed at
   one of them ([spawn_on], a wake) spawns its domain.
   Only *runnable* continuations migrate between domains; a fiber's
   coupled sections still run on its own original KC ([Kc]), so
   system-call consistency is preserved under migration.

   A lone worker has no thief, so its local spawns and wakes go to the
   owner's FIFO instead of the LIFO deque: fibers run in spawn and wake
   order, as a single run queue would.

   This is substrates S2 (one worker) and S3 (many) of DESIGN.md: it
   shows that the BLT control flow is real executable code and carries
   the wall-clock micro-benches of the bench harness. *)

type fiber = {
  fid : int;
  mutable state : [ `Runnable | `Running | `Suspended | `Done ];
  completion : unit Completion.t; (* lock-free Done/joiners protocol *)
  mutable kc : Kc.t option;
      (* original KC, leased on first use and recycled at finish *)
}

(* A wake token is the one-shot resumption right for a suspended fiber,
   safe to hand to foreign threads (the reactor of lib/net, a KC): [fire] CASes the token claimed and only the winner
   schedules the continuation, so several racing wakers -- I/O
   readiness vs a timer, say -- resolve to exactly one resume and the
   losers learn they lost.  The closure inside routes through the
   engine that parked the fiber ([presume]), and remembers the worker
   that parked it, its home. *)
module Wake = struct
  type token = { fired : bool Atomic.t; resume : unit -> unit }

  let make resume = { fired = Atomic.make false; resume }

  let fire t =
    if Atomic.exchange t.fired true then false
    else begin
      t.resume ();
      true
    end
end

type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : (Wake.token -> unit) -> unit Effect.t
  | Spawn : (unit -> unit) -> fiber Effect.t
  | Spawn_on : int * (unit -> unit) -> fiber Effect.t
  | Self : fiber Effect.t

exception Not_in_scheduler

(* Completion must be safe against joiners on other domains: one
   uncontended exchange publishes Done and snatches the joiner list in
   one atomic step, then wakes outside any lock. *)
let finish_fiber fb =
  fb.state <- `Done;
  Completion.finish fb.completion ()

type pworker = {
  wid : int;
  deque : (unit -> unit) Atomic_deque.t; (* runnable continuations *)
  overflow : (unit -> unit) Queue.t;
      (* private FIFO: own yields + inbox-batch tails (and, for a
         lone worker, its local spawns and wakes).  Only the owner
         domain touches it, so no synchronization; the owner never
         parks while it is non-empty. *)
  inbox : (unit -> unit) Mpsc_queue.t;
      (* cross-thread deliveries: the wakes of fibers this worker
         parked, fired by any thread but a worker of the run (a KC's
         completion, a foreign thread, a peer's driver turn), [spawn_on]
         and the run's main fiber.  Only the owner pops; producers push
         from any thread.  Not stealable -- that is the point: the
         continuation resumes on the chosen worker. *)
  mutable rng : int; (* xorshift state for victim selection *)
  mutable steals : int; (* items obtained from other workers' deques *)
  mutable tick : int; (* tasks run; paces the fairness drain *)
  parker : Parker.t; (* per-worker parking: targeted wake-ups *)
  slot : Poll_park.slot;
      (* the owed wake token, and whether this worker waits in the
         poller rather than on [parker] *)
  mutable turn_seen : int; (* the driver's turn count at the last fairness tick *)
  mutable turn_peers : int list option;
      (* [Some peers] while this worker runs a driver turn: the
         wakes of its own fibers go straight to [overflow], and [peers]
         are the other workers whose inbox got one, notified once when
         the turn ends.  Owner only. *)
  w_launched : bool Atomic.t;
      (* the worker's domain exists.  Workers beyond [min domains cores]
         start UNLAUNCHED: a domain that is never needed is never
         spawned -- it costs no spawn/join milliseconds and, crucially,
         is no stop-the-world GC partner.  The first targeted delivery
         to such a worker launches it ([notify_worker]); an explicit
         [~domains] is honored as capacity, not as an eager fleet. *)
  (* -- scheduler telemetry: cheap monotonic counters.  All but
     [t_wakes] are owner-written plain fields (no contention, no
     atomics on the hot path); aggregation is racy-but-monotonic for
     mid-run snapshots and exact at run end (the done handshake is a
     happens-before edge covering every worker's last write). *)
  mutable t_steal_attempts : int; (* try_steal sessions entered *)
  mutable t_steal_fails : int; (* sessions that came back empty *)
  mutable t_parks : int; (* parks slept *)
  mutable t_inbox_drains : int; (* non-empty inbox drains *)
  t_wakes : int Atomic.t; (* tokens delivered to us, by any thread *)
  act_hist : int array;
      (* samples of the pool's launched-worker count (index = count, in
         [0, domains]), taken at fairness ticks and park entries: the
         distribution behind [Sched_stats.active_p50] *)
}

type psched = {
  ps_uid : int; (* names the run a driver is bound to *)
  workers : pworker array;
  plive : int Atomic.t;
  pnext_fid : int Atomic.t;
  stop : bool Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  idle : Idle_waker.t;
      (* parked worker ids: a push of work pops and wakes exactly one,
         instead of broadcasting to all.  Factored into [Idle_waker] so
         lib/check recompiles the exact code. *)
  eager : int; (* min domains cores: the workers launched at start *)
  launched : int Atomic.t; (* workers whose domain exists *)
  done_mutex : Mutex.t; (* run-exit accounting only (cold path) *)
  done_cond : Condition.t;
  mutable n_running : int; (* launched workers still in their loop; guarded above *)
  mutable pdomains : unit Domain.t list;
      (* spawned helper domains, for the final join; guarded by
         [done_mutex] (spawning is rare and cold) *)
  mutable pspawn : pworker -> bool;
      (* launch a worker's domain if not yet launched, [true] iff this
         call did; installed by [run_parallel] (it closes over
         [worker_loop], defined later) *)
  kcs : Kc.t Kc.pool; (* the run's original KCs, leased per fiber *)
  driver : driver option Atomic.t;
      (* the reactor this run waits in, bound by its first fiber wait on
         it ([Driver.bind]); [None] until then *)
}

(* A reactor as the engine sees it: an idle worker that holds [turn]
   waits in its poller ([run]) instead of on its parker. *)
and driver = {
  turn : Poll_park.turn;
  owner : int Atomic.t; (* [ps_uid] of the run bound to it, -1 when none *)
  run : block:(unit -> bool) -> unit;
      (* one reactor turn: commands, poller wait, dispatch, timers *)
  poke : unit -> unit; (* interrupt the poller wait *)
  pending : unit -> bool; (* watches, timers or commands remain *)
}

(* The worker executing on this domain, if any.  [tid] pins the context
   to the worker's own OS thread: Domain.DLS is shared by every
   systhread of a domain, so a thread the program creates on a worker
   domain (a KC) would otherwise read this worker's context and
   push to its Chase-Lev deque from a foreign thread -- breaking the
   deque's single-owner invariant.  Always go
   through [worker_ctx], never read [pctx_key] directly. *)
type pctx = { ps : psched; w : pworker; tid : int }

let pctx_key : pctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let worker_ctx () =
  match Domain.DLS.get pctx_key with
  | Some c when c.tid = Thread.id (Thread.self ()) -> Some c
  | _ -> None

let psched_uid = Atomic.make 0

let fairness_interval = 64 (* drain inbox + overflow at least this often *)

let make_psched ~domains =
  (* With domains > cores the excess workers would only take turns on
     the same cores, so they start unlaunched (see [w_launched]). *)
  let eager = max 1 (min domains (Domain.recommended_domain_count ())) in
  {
    ps_uid = Atomic.fetch_and_add psched_uid 1;
    workers =
      Array.init domains (fun wid ->
          {
            wid;
            deque = Atomic_deque.create ~dummy:ignore;
            overflow = Queue.create ();
            inbox = Mpsc_queue.create ();
            rng = (wid * 0x9e3779b9) lor 1;
            steals = 0;
            tick = 0;
            parker = Parker.create ();
            slot = Poll_park.slot ();
            turn_seen = -1;
            turn_peers = None;
            w_launched = Atomic.make (wid = 0);
            t_steal_attempts = 0;
            t_steal_fails = 0;
            t_parks = 0;
            t_inbox_drains = 0;
            t_wakes = Atomic.make 0;
            act_hist = Array.make (domains + 1) 0;
          });
    plive = Atomic.make 0;
    pnext_fid = Atomic.make 1;
    stop = Atomic.make false;
    failure = Atomic.make None;
    idle = Idle_waker.create ();
    eager;
    launched = Atomic.make 1 (* worker 0 runs on the calling domain *);
    done_mutex = Mutex.create ();
    done_cond = Condition.create ();
    n_running = 1;
    pdomains = [];
    pspawn = (fun _ -> false) (* installed by run_parallel *);
    kcs = Kc.pool ();
    driver = Atomic.make None;
  }

(* ---- targeted parking: the idle-worker Treiber stack ----

   Protocol: a parking worker pushes its wid, then re-checks for work
   (Dekker: producers store work first and read the stack second, so
   both sides cannot miss each other), then sleeps -- in its run's
   poller when it holds the driver's turn, else on its OWN parker.
   Whoever pops a wid -- wake_one on a push of work, wake_all on stop
   -- owes that worker exactly one token; a worker that cancels its
   parking either removes itself (no token coming) or, having lost the
   pop race, consumes the token without sleeping.  One token per pop,
   one consume per push: no token leaks across parking rounds. *)

let poke_driver ps =
  match Atomic.get ps.driver with Some d -> d.poke () | None -> ()

(* The token goes in first ([Poll_park.post] pokes a worker waiting in
   the poller), then the permit: a worker on its parker re-checks the
   token after every park.  A KC delivering its section's completion
   does so inside [Parker.deferring], so a worker of its own domain is
   woken only once the KC has let go of the runtime lock. *)
let deliver_token ps w =
  Atomic.incr w.t_wakes;
  Poll_park.post w.slot ~poke:(fun () -> poke_driver ps);
  Parker.unpark w.parker

(* A permit left by a wake the worker took in the poller only costs one
   more turn of the loop. *)
let await_token w =
  while not (Poll_park.take_token w.slot) do
    (* ulplint: allow blocking-in-fiber -- worker-domain parking: an idle domain must really sleep in the OS, which is exactly what a fiber must never do *)
    Parker.park w.parker
  done

(* Wake exactly one parked worker, if any.  The common nobody-idle path
   is a single atomic read inside [Idle_waker.pop]. *)
let wake_one ps =
  match Idle_waker.pop ps.idle with
  | Some wid -> deliver_token ps ps.workers.(wid)
  | None -> ()

(* Stop: every parked worker gets a token.  Unlaunched workers are
   never on the stack, so no domain is launched just to be stopped. *)
let wake_all ps =
  List.iter (fun wid -> deliver_token ps ps.workers.(wid)) (Idle_waker.drain ps.idle)

(* Targeted wake: worker [wid] has (or is about to get) work in its
   private inbox, and nobody else can run it.  An unlaunched worker is
   launched now and finds the inbox when its loop starts; a launched
   one is un-parked iff it is parked.  If it is running it will find
   the inbox in [next_task]; if it is between our inbox push and its
   own park publication, its post-publication re-check of the inbox
   closes the Dekker handshake. *)
let notify_worker ps wid =
  let w = ps.workers.(wid) in
  if (not (ps.pspawn w)) && Idle_waker.take ps.idle wid then deliver_token ps w

(* Deliver a thunk to a specific worker's inbox from any thread. *)
let push_targeted ps wid thunk =
  Mpsc_queue.push ps.workers.(wid).inbox thunk;
  notify_worker ps wid

(* Make a runnable continuation available to the calling worker: its
   private FIFO when it is the pool's only worker (nothing can steal, so
   the LIFO deque would only reverse spawn and wake order), otherwise
   its Chase-Lev deque plus one wake so a parked peer can steal it. *)
let push_local ps w thunk =
  if Array.length ps.workers = 1 then Queue.push thunk w.overflow
  else begin
    Atomic_deque.push w.deque thunk;
    wake_one ps
  end

(* The worker running the calling fiber.  An effect is handled on the
   worker that runs its fiber, so a handler always finds one. *)
let running_worker () =
  match worker_ctx () with Some c -> c.w | None -> assert false

(* Resume a parked fiber.  The routing is decided here, by where the
   waker runs, relative to the fiber's [home] worker:
   - a worker running a driver turn puts a wake of its own fiber
     straight on its private FIFO, and one of a peer's fiber in that
     peer's inbox, noting the peer once for [end_turn]: k ready fds
     cost at most one notification per worker, none for its own;
   - any other worker of this scheduler takes the local path;
   - any other thread (a KC sending its section's completion, a
     foreign thread or domain) delivers to [home]'s inbox. *)
let presume ps thunk ~home () =
  match worker_ctx () with
  | Some c when c.ps == ps -> (
      match c.w.turn_peers with
      | Some peers ->
          if home = c.w.wid then Queue.push thunk c.w.overflow
          else begin
            Mpsc_queue.push ps.workers.(home).inbox thunk;
            if not (List.mem home peers) then c.w.turn_peers <- Some (home :: peers)
          end
      | _ -> push_local ps c.w thunk)
  | _ -> push_targeted ps home thunk

(* Bracket a driver turn run by worker [w] (see [presume]). *)
let begin_turn w = w.turn_peers <- Some []

let end_turn ps w =
  match w.turn_peers with
  | Some peers ->
      w.turn_peers <- None;
      List.iter (notify_worker ps) peers
  | None -> ()

let pstop ps =
  Atomic.set ps.stop true;
  wake_all ps

let pnew_fiber ps =
  Atomic.incr ps.plive;
  {
    fid = Atomic.fetch_and_add ps.pnext_fid 1;
    state = `Runnable;
    completion = Completion.create ();
    kc = None;
  }

let rec pexec (fb : fiber) (thunk : unit -> unit) =
  fb.state <- `Running;
  thunk ()

and phandle ps fb body =
  let open Effect.Deep in
  match_with body ()
    {
      retc =
        (fun () ->
          (* every coupled section of this fiber has woken it, so its
             KC can go straight back to the pool *)
          (match fb.kc with
          | Some kc ->
              fb.kc <- None;
              Kc.recycle ps.kcs kc
          | None -> ());
          finish_fiber fb;
          if Atomic.fetch_and_add ps.plive (-1) = 1 then pstop ps);
      exnc = raise (* caught by the worker loop, aborts the run *);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (b, unit) continuation) ->
                  fb.state <- `Runnable;
                  (* the worker's private overflow FIFO: no atomics, no
                     wake-up -- the owner drains it itself.  FIFO keeps
                     co-located yielders round-robin (a LIFO deque
                     self-push would re-pop the yielder immediately). *)
                  Queue.push
                    (fun () -> pexec fb (fun () -> continue k ()))
                    (running_worker ()).overflow)
          | Suspend register ->
              Some
                (fun (k : (b, unit) continuation) ->
                  fb.state <- `Suspended;
                  (* the parking worker: the home a wake returns to *)
                  let home = (running_worker ()).wid in
                  register
                    (Wake.make
                       (presume ps (fun () -> pexec fb (fun () -> continue k ())) ~home)))
          | Spawn body' ->
              Some
                (fun (k : (b, unit) continuation) ->
                  let child = pnew_fiber ps in
                  push_local ps (running_worker ())
                    (fun () -> pexec child (fun () -> phandle ps child body'));
                  continue k child)
          | Spawn_on (wid, body') ->
              Some
                (fun (k : (b, unit) continuation) ->
                  let n = Array.length ps.workers in
                  let wid = ((wid mod n) + n) mod n in
                  let child = pnew_fiber ps in
                  push_targeted ps wid (fun () -> pexec child (fun () -> phandle ps child body'));
                  continue k child)
          | Self -> Some (fun (k : (b, unit) continuation) -> continue k fb)
          | _ -> None);
    }

let xorshift x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  (x lxor (x lsl 17)) land max_int

(* Unbiased draw in [0, bound): rejection-sample the low bits against
   the next power-of-two mask.  [r mod bound] over a 62-bit xorshift is
   modulo-biased and, worse, correlated draws can camp on one victim. *)
let rand_below w bound =
  let rec mask m = if m >= bound - 1 then m else mask ((m lsl 1) lor 1) in
  let m = mask 1 in
  let rec draw () =
    w.rng <- xorshift w.rng;
    let r = w.rng land m in
    if r < bound then r else draw ()
  in
  draw ()

(* Drain the private inbox into the overflow FIFO and hand back its
   head.  Appending the whole batch behind the overflow (rather than
   pushing it onto the LIFO deque, which would reverse each batch)
   keeps arrival order end to end: earlier wake-ups always resume
   before later ones on this worker. *)
let take_inbox w =
  match Mpsc_queue.pop_all w.inbox with
  | [] -> None
  | batch ->
      w.t_inbox_drains <- w.t_inbox_drains + 1;
      List.iter (fun t -> Queue.push t w.overflow) batch;
      Queue.take_opt w.overflow

(* Randomized steal-half: one pass of n-1 unbiased victim probes (self
   is never drawn, so no probe is burned skipping it).  A successful
   probe takes up to half the victim's deque in one visit; the first
   item runs now, the rest become local stealable work, and one more
   parked worker is woken to share it. *)
let try_steal ps w =
  let n = Array.length ps.workers in
  if n = 1 then None
  else begin
    w.t_steal_attempts <- w.t_steal_attempts + 1;
    let rec probe tries =
      if tries = 0 then begin
        w.t_steal_fails <- w.t_steal_fails + 1;
        None
      end
      else begin
        let v = rand_below w (n - 1) in
        let v = if v >= w.wid then v + 1 else v in
        match Atomic_deque.steal_batch ps.workers.(v).deque with
        | [] -> probe (tries - 1)
        | x :: rest ->
            w.steals <- w.steals + 1 + List.length rest;
            List.iter (Atomic_deque.push w.deque) rest;
            if rest <> [] then wake_one ps;
            Some x
      end
    in
    probe (n - 1)
  end

(* Sample the pool's launched-worker count into this worker's private
   histogram (fairness ticks + park entries): the raw distribution
   behind [Sched_stats.active_p50] and the bench's measured
   oversubscription flag. *)
let sample_active ps w =
  let a = Atomic.get ps.launched in
  w.act_hist.(a) <- w.act_hist.(a) + 1

(* Leave the driver's turn.  When watches or timers remain, wake one
   parked peer: it takes the turn when it parks again, so they are
   never left with nobody polling. *)
let leave_turn ps d =
  Poll_park.leave d.turn ~pending:d.pending ~hand_off:(fun () -> wake_one ps)

(* A busy worker's turn: when nobody has held the turn since this
   worker's last fairness tick, poll once without blocking, so
   readiness and deadlines reach parked fibers while every worker
   runs. *)
let tick_turn ps w =
  match Atomic.get ps.driver with
  | None -> ()
  | Some d ->
      if Poll_park.quiet d.turn w.turn_seen && Poll_park.try_hold d.turn then begin
        begin_turn w;
        d.run ~block:(fun () -> false);
        end_turn ps w;
        leave_turn ps d
      end;
      w.turn_seen <- Poll_park.seen d.turn

let next_task ps w =
  w.tick <- w.tick + 1;
  if w.tick mod fairness_interval = 0 then begin
    (* fairness tick: under a steady local load, give the poller, the
       private inbox and the overflow FIFO a turn so external wake-ups
       and parked yielders make progress *)
    sample_active ps w;
    tick_turn ps w;
    match take_inbox w with
    | Some _ as r -> r
    | None -> (
        match Queue.take_opt w.overflow with
        | Some _ as r -> r
        | None -> (
            match Atomic_deque.pop w.deque with
            | Some _ as r -> r
            | None -> try_steal ps w))
  end
  else
    match Atomic_deque.pop w.deque with
    | Some _ as r -> r
    | None -> (
        (* A non-empty inbox is drained before the overflow FIFO is
           served: its batch still queues behind the FIFO, so order
           holds, but a KC's completion joins the round of the yielders
           instead of waiting for the fairness tick. *)
        match take_inbox w with
        | Some _ as r -> r
        | None -> (
            match Queue.take_opt w.overflow with
            | Some _ as r -> r
            | None -> try_steal ps w))

(* Nothing for [w] to run: no deque holds stealable work and its own
   inbox is empty.  Other workers' private FIFOs and inboxes are
   excluded on purpose -- only their owners can run them, and an owner
   never parks while its own are non-empty (next_task checks the FIFO
   on every path before returning None, and the inbox here). *)
let parkable ps w =
  (not (Atomic.get ps.stop))
  && Array.for_all (fun v -> Atomic_deque.is_empty v.deque) ps.workers
  && Mpsc_queue.is_empty w.inbox

(* A worker holding the turn waits in the poller.  The wakes of its
   own fibers go straight to its FIFO, with no notify and no poke; it
   notifies its peers once the turn ends.  A token some waker owes it
   (the poke that ended the wait, say) is consumed after the
   hand-off. *)
let park_in_poller ps w d =
  Parker.flush ();
  begin_turn w;
  Poll_park.poll w.slot d.run;
  end_turn ps w;
  let owed = not (Idle_waker.take ps.idle w.wid) in
  leave_turn ps d;
  if owed then await_token w

(* The idle-KC policy (paper Table II), blocking: a worker with nothing
   to run parks at once, in its run's poller when the run is bound to a
   reactor and nobody else holds the turn, otherwise on its own
   parker.  It does not spin first: a spinner holds the core (or, for
   a lone worker, the domain lock) that the producer it waits for
   needs, and a fixed spin measured slower on a 2-core host (DESIGN.md
   section 5g).

   Producers store work before reading the idle stack; parkers publish
   themselves before re-checking -- the Dekker handshake that makes a
   lost wake-up impossible.  The same handshake covers targeted
   deliveries: [push_targeted] and a turn's [presume] + [end_turn] push
   the inbox first and read the stack second, the parker publishes
   first and re-reads its inbox second.  A failed cancel means a waker already popped us and its
   token is in flight -- consume it now instead of sleeping on it in a
   later parking round. *)
let park ps w =
  sample_active ps w;
  if parkable ps w then begin
    Idle_waker.push ps.idle w.wid;
    if not (parkable ps w) then begin
      if not (Idle_waker.take ps.idle w.wid) then await_token w
    end
    else begin
      w.t_parks <- w.t_parks + 1;
      match Atomic.get ps.driver with
      | Some d when Poll_park.try_hold d.turn -> park_in_poller ps w d
      | _ -> await_token w
    end
  end

let worker_loop ps w =
  Domain.DLS.set pctx_key (Some { ps; w; tid = Thread.id (Thread.self ()) });
  sample_active ps w;
  let rec go () =
    if not (Atomic.get ps.stop) then begin
      (match next_task ps w with
      | Some thunk ->
          (* A KC this worker owes a wake (its fiber's coupled section)
             runs at the yield below; an idle worker sends it from its
             park instead, once the runtime lock is free. *)
          Parker.flush ();
          (try thunk ()
           with exn ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set ps.failure None (Some (exn, bt)));
             pstop ps);
          (* The KCs leased on this domain are its systhreads: they run
             only while the worker lets go of the domain's runtime lock.
             Hand it over at every fiber switch, not only at park or at
             the 50 ms tick; with nobody waiting this returns at once. *)
          Thread.yield ()
      | None -> park ps w);
      go ()
    end
  in
  go ();
  Parker.flush ();
  Domain.DLS.set pctx_key None;
  (* last worker out lets [run_parallel] reap the KCs *)
  (* ulplint: allow raw-mutex-in-fiber -- run_parallel shutdown handshake between raw domains, outside any fiber engine *)
  Mutex.lock ps.done_mutex;
  ps.n_running <- ps.n_running - 1;
  Condition.broadcast ps.done_cond;
  Mutex.unlock ps.done_mutex

(* ---------- scheduler telemetry snapshots ---------- *)

module Sched_stats = struct
  type t = {
    domains : int;
    steals : int;
    steal_attempts : int;
    steal_fails : int;
    parks : int;
    deep_parks : int;
    wakes : int;
    spins : int;
    inj_drains : int;
    active_now : int;
    target_now : int;
    active_hist : int array;
  }

  let steal_fail_rate t =
    if t.steal_attempts = 0 then 0.0
    else float_of_int t.steal_fails /. float_of_int t.steal_attempts

  (* Weighted median of the launched-worker samples: the pool width the
     run actually used (requested [domains] is what the caller asked
     for). *)
  let active_p50 t =
    let total = Array.fold_left ( + ) 0 t.active_hist in
    if total = 0 then t.active_now
    else begin
      let half = (total + 1) / 2 in
      let acc = ref 0 and res = ref t.domains in
      (try
         Array.iteri
           (fun i c ->
             acc := !acc + c;
             if !acc >= half && c > 0 then begin
               res := i;
               raise Exit
             end)
           t.active_hist
       with Exit -> ());
      !res
    end
end

(* Aggregate the per-worker counters.  Mid-run this is a racy (but
   per-counter monotonic) snapshot; at run end — after the done
   handshake — it is exact. *)
let snapshot_sched ps =
  let n = Array.length ps.workers in
  let hist = Array.make (n + 1) 0 in
  let steals = ref 0
  and attempts = ref 0
  and fails = ref 0
  and parks = ref 0
  and wakes = ref 0
  and drains = ref 0 in
  Array.iter
    (fun w ->
      steals := !steals + w.steals;
      attempts := !attempts + w.t_steal_attempts;
      fails := !fails + w.t_steal_fails;
      parks := !parks + w.t_parks;
      wakes := !wakes + Atomic.get w.t_wakes;
      drains := !drains + w.t_inbox_drains;
      Array.iteri (fun i c -> hist.(i) <- hist.(i) + c) w.act_hist)
    ps.workers;
  {
    Sched_stats.domains = n;
    steals = !steals;
    steal_attempts = !attempts;
    steal_fails = !fails;
    parks = !parks;
    deep_parks = 0;
    wakes = !wakes;
    spins = 0;
    inj_drains = !drains;
    active_now = Atomic.get ps.launched;
    target_now = ps.eager;
    active_hist = hist;
  }

(* ---------- public API ---------- *)

(* Run [main] plus everything it spawns to completion on [domains]
   domains (the calling domain is worker 0). *)
let run_parallel ?domains ?on_stats main =
  let domains =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  if domains < 1 then invalid_arg "Fiber.run_parallel: domains must be >= 1";
  (match worker_ctx () with
  | Some _ -> invalid_arg "Fiber.run_parallel: already inside run_parallel"
  | None -> ());
  let ps = make_psched ~domains in
  (* Launch a worker's domain exactly once.  Holding [done_mutex]
     across the spawn keeps the [n_running] increment, the spawn and
     the [pdomains] registration one atomic step against the shutdown
     handshake (the child may block on the same mutex at ITS exit, but
     never while we hold it waiting on the child).  Once [stop] is set
     nothing is launched: a worker loop may already have exited, and
     the final join must not miss a domain. *)
  ps.pspawn <-
    (fun w ->
      (not (Atomic.get w.w_launched))
      && Atomic.compare_and_set w.w_launched false true
      && begin
           (* ulplint: allow raw-mutex-in-fiber -- run_parallel worker-domain launch accounting between raw domains, outside any fiber engine *)
           Mutex.lock ps.done_mutex;
           let go = not (Atomic.get ps.stop) in
           if go then begin
             Atomic.incr ps.launched;
             ps.n_running <- ps.n_running + 1;
             ps.pdomains <- Domain.spawn (fun () -> worker_loop ps w) :: ps.pdomains
           end;
           Mutex.unlock ps.done_mutex;
           go
         end);
  let fb = pnew_fiber ps in
  Mpsc_queue.push ps.workers.(0).inbox (fun () -> pexec fb (fun () -> phandle ps fb main));
  for wid = 1 to ps.eager - 1 do
    ignore (ps.pspawn ps.workers.(wid))
  done;
  worker_loop ps ps.workers.(0);
  (* KCs may be created up to the very last thunk a helper runs, so
     only reap them once every worker loop has exited; they must be
     shut down BEFORE joining the helper domains -- a domain does not
     terminate while OS threads it created (the KCs first leased
     there) are still alive.  Shutdown runs a section still in a KC's
     slot before the KC exits. *)
  (* ulplint: allow raw-mutex-in-fiber -- run_parallel shutdown handshake between raw domains, outside any fiber engine *)
  Mutex.lock ps.done_mutex;
  while ps.n_running > 0 do
    (* ulplint: allow raw-mutex-in-fiber -- run_parallel shutdown handshake between raw domains, outside any fiber engine *)
    Condition.wait ps.done_cond ps.done_mutex
  done;
  let helpers = ps.pdomains in
  ps.pdomains <- [];
  Mutex.unlock ps.done_mutex;
  List.iter Kc.shutdown (Kc.all ps.kcs);
  List.iter Domain.join helpers;
  (* the reactor may serve the next run *)
  (match Atomic.get ps.driver with
  | Some d -> ignore (Atomic.compare_and_set d.owner ps.ps_uid (-1))
  | None -> ());
  (match on_stats with Some f -> f (snapshot_sched ps) | None -> ());
  match Atomic.get ps.failure with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ()

(* Run [main] plus everything it spawns to completion on the calling
   domain alone. *)
let run main = run_parallel ~domains:1 main

let spawn body = Effect.perform (Spawn body)
let spawn_on ~worker body = Effect.perform (Spawn_on (worker, body))
let yield () = Effect.perform Yield
let self () = Effect.perform Self
let id fb = fb.fid

(* [`Done] is read off the atomic completion cell (so a cross-domain
   observer synchronizes with the finish); the other states are the
   owner's informational view. *)
let state fb = if Completion.is_done fb.completion then `Done else fb.state

(* Park the fiber; [register] receives the one-shot wake token.  Every
   waker that might race another should go through [suspend_token] and
   check [Wake.fire]'s verdict. *)
let suspend_token register = Effect.perform (Suspend register)

(* Park the fiber; [register] receives a wake function callable exactly
   once from any OS thread (extra calls are ignored -- the token
   underneath absorbs them). *)
let suspend register =
  suspend_token (fun tok -> register (fun () -> ignore (Wake.fire tok)))

(* Wait until [fb] finishes -- lock-free.  [Completion.add_joiner]
   either CASes our waker into the joiner list before Done is
   published (the finisher wakes us) or observes Done and wakes
   immediately; sequentially consistent atomics make every write the
   fiber made visible to the woken joiner. *)
let join fb =
  if not (Completion.is_done fb.completion) then
    suspend (fun wake -> Completion.add_joiner fb.completion wake)

let live () =
  match worker_ctx () with
  | Some c -> Atomic.get c.ps.plive
  | None -> raise Not_in_scheduler

let worker_index () =
  match worker_ctx () with Some c -> Some c.w.wid | None -> None

let num_workers () =
  match worker_ctx () with
  | Some c -> Some (Array.length c.ps.workers)
  | None -> None

(* Mid-run racy snapshot of the ambient parallel engine's telemetry
   (each counter is monotonic; cross-counter ratios are approximate
   while workers run). *)
let sched_stats () =
  match worker_ctx () with Some c -> Some (snapshot_sched c.ps) | None -> None

module Driver = struct
  type t = driver

  let make ~run ~poke ~pending =
    { turn = Poll_park.turn (); owner = Atomic.make (-1); run; poke; pending }

  (* Bind the ambient run to [d]: once per run, from its first wait on
     the reactor.  Sequential runs may share a reactor; concurrent ones
     may not, and one run waits on one reactor. *)
  let bind d =
    match worker_ctx () with
    | None -> raise Not_in_scheduler
    | Some c -> (
        let ps = c.ps in
        match Atomic.get ps.driver with
        | Some d' when d' == d -> ()
        | Some _ -> invalid_arg "Fiber.Driver.bind: this run waits on another reactor"
        | None ->
            if
              not
                (Atomic.compare_and_set d.owner (-1) ps.ps_uid
                || Atomic.get d.owner = ps.ps_uid)
            then invalid_arg "Fiber.Driver.bind: the reactor serves another run";
            if not (Atomic.compare_and_set ps.driver None (Some d)) then
              match Atomic.get ps.driver with
              | Some d' when d' == d -> ()
              | _ ->
                  ignore (Atomic.compare_and_set d.owner ps.ps_uid (-1));
                  invalid_arg "Fiber.Driver.bind: this run waits on another reactor")

  let close d = Poll_park.close d.turn ~poke:d.poke
end

(* The calling fiber's original KC, leased from its run's pool on first
   use.  Only the fiber itself touches its [kc] field and a fiber
   runs on one domain at a time, so the field needs no locking. *)
let lease_kc () =
  match worker_ctx () with
  | None -> raise Not_in_scheduler
  | Some c -> (
      let fb = self () in
      match fb.kc with
      | Some kc -> kc
      | None ->
          let kc = Kc.lease c.ps.kcs ~create:Kc.start in
          fb.kc <- Some kc;
          kc)
