(* A real cooperative fiber runtime on OCaml effect handlers: user
   contexts as one-shot continuations, with a thread-safe injection
   path so other OS threads (the executors of [Blt_rt]) can wake
   suspended fibers.

   One engine, the Section VII M:N extension made real on OCaml 5
   domains: [run_parallel ~domains:n] runs n workers, and [run] is the
   same engine with one worker.  Each worker owns a Chase-Lev
   [Atomic_deque] (LIFO owner pop, FIFO steal-half batches) plus a
   private overflow FIFO for its own yields; cross-thread wake-ups
   arrive on a lock-free MPSC injection channel reserved for foreign
   threads; fiber completion is the lock-free [Completion] cell; and
   idle workers park individually on a Treiber stack so one ready task
   wakes exactly one worker (the spin-then-block idle-KC policy of the
   paper's Table II, without the thundering herd).  Only *runnable*
   continuations migrate between domains; a fiber's blocking jobs
   still route to its home [Executor] (the original-KC analogue), so
   system-call consistency is preserved under migration.

   A lone worker has no thief and no peer to produce work, so two
   behaviours follow from the worker count alone: local spawns and
   wakes go to the owner's FIFO instead of the LIFO deque (fibers run
   in spawn and wake order, as a single run queue would), and the
   idle worker never spins (its only producers are systhreads on its
   own domain, which need the domain lock a spinner holds).

   This is substrates S2 (one worker) and S3 (many) of DESIGN.md: it
   shows that the BLT control flow is real executable code and carries
   the wall-clock micro-benches of the bench harness. *)

type fiber = {
  fid : int;
  mutable state : [ `Runnable | `Running | `Suspended | `Done ];
  completion : Completion.t; (* lock-free Done/joiners protocol *)
  mutable executor : Executor.t option;
      (* original KC, leased on first use and recycled at finish *)
}

(* A wake token is the one-shot resumption right for a suspended fiber,
   safe to hand to foreign threads (the reactor of lib/net, an
   executor): [fire] CASes the token claimed and only the winner
   schedules the continuation, so several racing wakers -- I/O
   readiness vs a timer, say -- resolve to exactly one resume and the
   losers learn they lost.  The closure inside routes through the
   engine that parked the fiber ([presume]).

   [fire_to] is the reactor's targeted entry point: an optional worker
   hint routes the continuation to that worker's private inbox (the
   PR-3 fast path -- no global MPSC contention, and the fiber resumes
   where its cache already is), and an optional [batch] defers the
   wake-one notification so a poll tick that fires N tokens pays one
   deduped notification per distinct target instead of N. *)
module Wake = struct
  type note = { bkey : int * int; bnotify : unit -> unit }

  (* A batch is single-owner by contract: only the thread that created
     it may fire into it or flush it (the reactor shard's loop), so the
     note list needs no synchronization. *)
  type batch = { mutable notes : note list }

  type token = {
    fired : bool Atomic.t;
    resume : int option -> batch option -> unit;
  }

  let make_routed resume = { fired = Atomic.make false; resume }

  let fire t =
    if Atomic.exchange t.fired true then false
    else begin
      t.resume None None;
      true
    end

  let fire_to ?worker ?batch t =
    if Atomic.exchange t.fired true then false
    else begin
      t.resume worker batch;
      true
    end

  let is_fired t = Atomic.get t.fired
  let batch () = { notes = [] }

  (* engine-internal: record one deferred notification per [key] *)
  let note b ~key notify =
    if not (List.exists (fun n -> n.bkey = key) b.notes) then
      b.notes <- { bkey = key; bnotify = notify } :: b.notes

  let flush b =
    match b.notes with
    | [] -> ()
    | ns ->
        b.notes <- [];
        List.iter (fun n -> n.bnotify ()) ns
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
  Completion.finish fb.completion

type pworker = {
  wid : int;
  deque : (unit -> unit) Atomic_deque.t; (* runnable continuations *)
  overflow : (unit -> unit) Queue.t;
      (* private FIFO: own yields + injected-batch tails (and, for a
         lone worker, its local spawns and wakes).  Only the owner
         domain touches it, so no synchronization; the owner never
         parks while it is non-empty. *)
  inbox : (unit -> unit) Mpsc_queue.t;
      (* targeted cross-thread deliveries (the reactor routing a wake
         back to the fiber's home worker, [spawn_on]).  Only the owner
         pops; producers push from any thread.  Not stealable -- that
         is the point: the continuation resumes on the chosen worker. *)
  mutable rng : int; (* xorshift state for victim selection *)
  mutable steals : int; (* items obtained from other workers' deques *)
  mutable tick : int; (* tasks run; paces the fairness drain *)
  park_mutex : Mutex.t; (* per-worker parking: targeted wake-ups *)
  park_cond : Condition.t;
  mutable park_wake : bool; (* a pending wake token; guarded by park_mutex *)
  w_launched : bool Atomic.t;
      (* the worker's domain exists.  Workers beyond the elastic target
         start UNLAUNCHED and preloaded into deep park: a domain that
         is never woken is never spawned — it costs no spawn/join
         milliseconds and, crucially, is no stop-the-world GC partner.
         The first wake/claim that pops such a worker launches it
         ([pspawn]); an explicit [~domains] is honored as capacity, not
         as an eager fleet. *)
  (* -- scheduler telemetry: cheap monotonic counters.  All but
     [t_wakes] are owner-written plain fields (no contention, no
     atomics on the hot path); aggregation is racy-but-monotonic for
     mid-run snapshots and exact at run end (the done handshake is a
     happens-before edge covering every worker's last write). *)
  mutable t_steal_attempts : int; (* try_steal sessions entered *)
  mutable t_steal_fails : int; (* sessions that came back empty *)
  mutable t_parks : int; (* shallow (wake-eligible) parks slept *)
  mutable t_deep_parks : int; (* deep (collapsed) parks slept *)
  mutable t_spins : int; (* cpu_relax iterations before parking *)
  mutable t_inj_drains : int; (* non-empty injection-channel drains *)
  t_wakes : int Atomic.t; (* tokens delivered to us, by any thread *)
  act_hist : int array;
      (* samples of the pool's active-worker count (index = active, in
         [0, domains]), taken at fairness ticks and park entries: the
         distribution behind [Sched_stats.active_p50] *)
  (* -- adaptive state, owned by the per-run loop (see [adapt]): *)
  w_deep : bool Atomic.t; (* deep-parked; thieves skip us as victim *)
  mutable spin_budget : int; (* current spin-before-park budget *)
  mutable steal_rounds : int; (* current steal rounds per session *)
  mutable ewma : float; (* steal-failure EWMA, the oversubscription signal *)
  mutable idle_streak : int; (* consecutive woken-to-find-nothing parks *)
}

(* Per-run tuning, resolved in [make_psched] — NOT at module load.
   (The old module-level [spin_budget]/[steal_rounds] were computed
   once from [recommended_domain_count] when [Fiber] was first linked,
   so a 1-core CI loader baked spin_budget = 0 into every subsequent
   run regardless of the host it actually ran on, and a multicore
   loader kept 4-domain runs spinning on a 1-core cgroup.)  These are
   the BASE values; the adaptive loop owns the live per-worker copies
   and moves them between 0 and [max_spin] as the steal-failure EWMA
   swings. *)
type tune = {
  base_spin : int; (* initial spin-before-park budget *)
  max_spin : int; (* adaptive re-expansion ceiling *)
  base_rounds : int; (* initial steal rounds per session *)
  deep_after : int; (* idle_streak threshold for chronic-idle collapse *)
  host_cores : int; (* recommended_domain_count at run start *)
}

type psched = {
  ps_uid : int; (* distinguishes schedulers in Wake batch dedup keys *)
  ptune : tune;
  workers : pworker array;
  pinject : (unit -> unit) Mpsc_queue.t;
      (* cross-thread wake-ups ONLY: executors, foreign domains.  A
         worker's own yields take its private overflow FIFO instead --
         the global MPSC head was the serialization point that made
         run_parallel scale negatively. *)
  plive : int Atomic.t;
  pnext_fid : int Atomic.t;
  stop : bool Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  elastic : Elastic.t;
      (* Elastic idle accounting: a shallow Treiber stack of parked
         worker ids (a push of work pops and wakes exactly one, instead
         of broadcasting to all) plus a deep-park set excluded from
         routine wakes and victim probes, with an active-worker target
         the adaptive loop moves.  Factored into [Elastic] (over
         [Idle_waker]) so lib/check recompiles the exact code. *)
  done_mutex : Mutex.t; (* run-exit accounting only (cold path) *)
  done_cond : Condition.t;
  mutable n_running : int; (* launched workers still in their loop; guarded above *)
  mutable pdomains : unit Domain.t list;
      (* spawned helper domains, for the final join; guarded by
         [done_mutex] (spawning is rare and cold) *)
  mutable pspawn : int -> unit;
      (* launch worker [wid]'s domain if not yet launched; installed by
         [run_parallel] (it closes over [worker_loop], defined later)
         and called by whoever pops an unlaunched worker off the deep
         stack *)
  kcs : Executor.t Kc_pool.t; (* the run's original KCs, leased per fiber *)
}

(* The worker executing on this domain, if any.  [tid] pins the context
   to the worker's own OS thread: Domain.DLS is shared by every
   systhread of a domain, so a thread the program creates on a worker
   domain (a reactor shard, an executor) would otherwise read this
   worker's context and push to its Chase-Lev deque from a foreign
   thread -- breaking the deque's single-owner invariant.  Always go
   through [worker_ctx], never read [pctx_key] directly. *)
type pctx = { ps : psched; w : pworker; tid : int }

let pctx_key : pctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let worker_ctx () =
  match Domain.DLS.get pctx_key with
  | Some c when c.tid = Thread.id (Thread.self ()) -> Some c
  | _ -> None

let psched_uid = Atomic.make 0

let fairness_interval = 64 (* drain injected + overflow at least this often *)
let steal_backoff_base = 16 (* cpu_relax iterations; doubles per round *)
let re_enlist_after = 64 (* eligible wake misses per deep re-enlist *)

(* EWMA of steal-session failures, per worker: alpha weights the last
   session a quarter; crossing [hi] is the oversubscribed signature
   (spinning burns the timeslice of whoever holds the work) and
   collapses the budgets to immediate parking; falling below [lo]
   (steals succeeding again) re-expands them bounded-exponentially. *)
let ewma_alpha = 0.25
let ewma_hi = 0.75
let ewma_lo = 0.25

(* Spin-then-block: BUSYWAIT rounds before parking (the latency/power
   knob of the paper's Table II).  Spinning only pays when another core
   can produce work meanwhile: never on a 1-core host, and never for a
   lone worker, whose only producers are systhreads on its own domain
   (executors, reactor shards) -- spinning holds the domain lock they
   need, delaying exactly the wake it waits for.  (A lone worker never
   runs a steal session, so [adapt] never raises its budget.) *)
let make_tune ~domains =
  let host_cores = Domain.recommended_domain_count () in
  let base_spin = if domains > 1 && host_cores > 1 then 256 else 0 in
  {
    base_spin;
    max_spin = (if domains <= host_cores then 256 else 32);
    base_rounds = (if base_spin > 0 then 3 else 1);
    deep_after = 8;
    host_cores;
  }

let make_psched ~domains =
  let ptune = make_tune ~domains in
  (* Target = the host's real parallelism (never above what we were
     given): with domains > cores the pool converges to ~cores active
     workers instead of thrashing; pressure re-enlists can still raise
     it back toward [domains].  Workers [eager, domains) start
     unlaunched AND preloaded into deep park, so on an oversubscribed
     host the excess domains are never even spawned unless re-enlist
     pressure (or a targeted [spawn_on]/inbox claim) demands them. *)
  let eager = max 1 (min domains ptune.host_cores) in
  let ps =
    {
      ps_uid = Atomic.fetch_and_add psched_uid 1;
      ptune;
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
              park_mutex = Mutex.create ();
              park_cond = Condition.create ();
              park_wake = false;
              w_launched = Atomic.make (wid = 0);
              t_steal_attempts = 0;
              t_steal_fails = 0;
              t_parks = 0;
              t_deep_parks = 0;
              t_spins = 0;
              t_inj_drains = 0;
              t_wakes = Atomic.make 0;
              act_hist = Array.make (domains + 1) 0;
              w_deep = Atomic.make (wid >= eager);
              spin_budget = ptune.base_spin;
              steal_rounds = ptune.base_rounds;
              ewma = 0.5;
              idle_streak = 0;
            });
      pinject = Mpsc_queue.create ();
      plive = Atomic.make 0;
      pnext_fid = Atomic.make 1;
      stop = Atomic.make false;
      failure = Atomic.make None;
      elastic =
        Elastic.create ~total:domains ~target:eager ~re_enlist_after;
      done_mutex = Mutex.create ();
      done_cond = Condition.create ();
      n_running = 1 (* worker 0 runs on the calling domain *);
      pdomains = [];
      pspawn = ignore (* installed by run_parallel *);
      kcs = Kc_pool.create ();
    }
  in
  for wid = eager to domains - 1 do
    ignore (Elastic.enter_deep ps.elastic wid)
  done;
  ps

(* ---- targeted parking: the idle-worker Treiber stack ----

   Protocol: a parking worker pushes its wid, then re-checks for work
   (Dekker: producers store work first and read the stack second, so
   both sides cannot miss each other), then sleeps on its OWN condvar.
   Whoever pops a wid -- wake_one on a push of work, wake_all on stop
   -- owes that worker exactly one token; a worker that cancels its
   parking either removes itself (no token coming) or, having lost the
   pop race, consumes the token without sleeping.  One token per pop,
   one consume per push: no token leaks across parking rounds. *)

let deliver_token w =
  Atomic.incr w.t_wakes;
  (* ulplint: allow raw-mutex-in-fiber -- worker-domain parking: an idle domain must really sleep in the OS, which is exactly what Sync must never do *)
  Mutex.lock w.park_mutex;
  w.park_wake <- true;
  Condition.signal w.park_cond;
  Mutex.unlock w.park_mutex

let await_token w =
  (* ulplint: allow raw-mutex-in-fiber -- worker-domain parking: an idle domain must really sleep in the OS, which is exactly what Sync must never do *)
  Mutex.lock w.park_mutex;
  while not w.park_wake do
    (* ulplint: allow raw-mutex-in-fiber -- worker-domain parking: an idle domain must really sleep in the OS, which is exactly what Sync must never do *)
    Condition.wait w.park_cond w.park_mutex
  done;
  w.park_wake <- false;
  Mutex.unlock w.park_mutex

(* Wake exactly one parked worker, if any.  The common nobody-idle path
   is a single atomic read inside [Elastic.wake].  [foreign] marks
   pushes from outside the worker pool (executors, reactor shards):
   those — plus local misses while the pool is below its own target —
   accumulate the re-enlist pressure that pulls deep-parked workers
   back when the pool has genuinely shed too far. *)
let wake_some ps ~foreign =
  match Elastic.wake ~foreign ps.elastic with
  | Some wid ->
      ps.pspawn wid;
      deliver_token ps.workers.(wid)
  | None -> ()

let wake_one ps = wake_some ps ~foreign:false

(* Stop: never launch a domain just to tell it to stop — unlaunched
   workers popped off the deep stack are simply dropped. *)
let wake_all ps =
  List.iter
    (fun wid ->
      let w = ps.workers.(wid) in
      if Atomic.get w.w_launched then deliver_token w)
    (Elastic.drain ps.elastic)

(* Targeted wake: worker [wid] has (or is about to get) work in its
   private inbox; un-park it iff it is parked — shallow or deep (an
   affinity delivery is for this one worker; nobody else can run it).
   If it is running it will find the inbox in [next_task]; if it is
   between our inbox push and its own park publication, its
   post-publication re-check of the inbox closes the Dekker
   handshake. *)
let notify_worker ps wid =
  if Elastic.claim ps.elastic wid then begin
    ps.pspawn wid;
    deliver_token ps.workers.(wid)
  end

(* Deliver a thunk to a specific worker's inbox from any thread.  With
   a [batch], the notification is deferred and deduped per (scheduler,
   worker) -- the reactor flushes once per poll tick. *)
let push_targeted ps wid thunk (b : Wake.batch option) =
  Mpsc_queue.push ps.workers.(wid).inbox thunk;
  match b with
  | None -> notify_worker ps wid
  | Some b -> Wake.note b ~key:(ps.ps_uid, wid) (fun () -> notify_worker ps wid)

let push_foreign ps thunk (b : Wake.batch option) =
  Mpsc_queue.push ps.pinject thunk;
  match b with
  | None -> wake_some ps ~foreign:true
  | Some b -> Wake.note b ~key:(ps.ps_uid, -1) (fun () -> wake_some ps ~foreign:true)

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

(* Called from a worker of this scheduler, take the local path;
   otherwise (executor threads, foreign domains) the MPSC injection
   channel.  Either way at most one parked worker is woken. *)
let pschedule ps thunk =
  match worker_ctx () with
  | Some c when c.ps == ps -> push_local ps c.w thunk
  | _ -> push_foreign ps thunk None

(* Routed resume for parked fibers: a worker of this scheduler takes
   the local path; any other thread honours the [worker] hint -- the
   reactor passing the fiber's home worker -- falling back to the
   global injection channel. *)
let presume ps thunk worker (b : Wake.batch option) =
  match worker_ctx () with
  | Some c when c.ps == ps && b = None -> push_local ps c.w thunk
  | _ -> (
      match worker with
      | Some wid when wid >= 0 && wid < Array.length ps.workers ->
          push_targeted ps wid thunk b
      | _ -> push_foreign ps thunk b)

let pstop ps =
  Atomic.set ps.stop true;
  wake_all ps

let pnew_fiber ps =
  Atomic.incr ps.plive;
  {
    fid = Atomic.fetch_and_add ps.pnext_fid 1;
    state = `Runnable;
    completion = Completion.create ();
    executor = None;
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
          (* the KC goes back to the pool only after every job this
             fiber queued on it *)
          (match fb.executor with
          | Some e ->
              fb.executor <- None;
              Kc_pool.recycle ps.kcs e
                ~reset_if_idle:Executor.clear_failures_if_idle
                ~submit:Executor.submit ~reset:Executor.clear_failures
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
                  let thunk () = pexec fb (fun () -> continue k ()) in
                  match worker_ctx () with
                  | Some c when c.ps == ps ->
                      (* fast path: the worker's private overflow FIFO.
                         No atomics, no wake-up -- the owner drains it
                         itself.  FIFO keeps co-located yielders
                         round-robin (a LIFO deque self-push would
                         re-pop the yielder immediately), and the
                         global MPSC -- the old hot path -- is no
                         longer touched by yields at all. *)
                      Queue.push thunk c.w.overflow
                  | _ -> push_foreign ps thunk None)
          | Suspend register ->
              Some
                (fun (k : (b, unit) continuation) ->
                  fb.state <- `Suspended;
                  let tok =
                    Wake.make_routed (fun worker batch ->
                        presume ps
                          (fun () -> pexec fb (fun () -> continue k ()))
                          worker batch)
                  in
                  register tok)
          | Spawn body' ->
              Some
                (fun (k : (b, unit) continuation) ->
                  let child = pnew_fiber ps in
                  pschedule ps (fun () -> pexec child (fun () -> phandle ps child body'));
                  continue k child)
          | Spawn_on (wid, body') ->
              Some
                (fun (k : (b, unit) continuation) ->
                  let n = Array.length ps.workers in
                  let wid = ((wid mod n) + n) mod n in
                  let child = pnew_fiber ps in
                  push_targeted ps wid
                    (fun () -> pexec child (fun () -> phandle ps child body'))
                    None;
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

(* Drain the injection channel into the private overflow FIFO and hand
   back its head.  Appending the whole batch behind the overflow (rather
   than pushing it onto the LIFO deque, which reversed each batch for
   the owner) keeps arrival order end to end: earlier wake-ups always
   resume before later ones on this worker. *)
let take_injected ps w =
  match Mpsc_queue.pop_all ps.pinject with
  | [] -> None
  | batch ->
      w.t_inj_drains <- w.t_inj_drains + 1;
      List.iter (fun t -> Queue.push t w.overflow) batch;
      Queue.take_opt w.overflow

(* Drain the private inbox the same way: whole batch behind the
   overflow FIFO, arrival order preserved. *)
let take_inbox w =
  match Mpsc_queue.pop_all w.inbox with
  | [] -> None
  | batch ->
      List.iter (fun t -> Queue.push t w.overflow) batch;
      Queue.take_opt w.overflow

(* The adaptation step, run after every steal session: update the
   steal-failure EWMA and move this worker's live budgets.  Crossing
   [ewma_hi] is the oversubscribed signature — the victims we keep
   probing empty-handed are not producing because they share our core —
   so spinning collapses to immediate parking and stealing to one
   round.  Falling under [ewma_lo] (steals succeeding again) re-expands
   the spin budget bounded-exponentially toward the per-run ceiling and
   restores the base steal rounds. *)
let adapt ps w ~failed =
  if failed then w.t_steal_fails <- w.t_steal_fails + 1;
  w.ewma <-
    (if failed then ewma_alpha else 0.0) +. ((1.0 -. ewma_alpha) *. w.ewma);
  if w.ewma >= ewma_hi then begin
    w.spin_budget <- 0;
    w.steal_rounds <- 1
  end
  else if w.ewma <= ewma_lo then begin
    if w.spin_budget < ps.ptune.max_spin then
      w.spin_budget <- min ps.ptune.max_spin (max 16 (2 * w.spin_budget));
    w.steal_rounds <- ps.ptune.base_rounds
  end

(* Randomized steal-half: up to [w.steal_rounds] rounds of n-1 unbiased
   victim probes (self is never drawn, so no probe is burned skipping
   it; deep-parked victims are skipped — their deques were empty when
   they collapsed and nobody else fills them), with bounded-exponential
   cpu_relax backoff between rounds so a herd of empty-handed thieves
   does not hammer the victims' cache lines.  A successful probe takes
   up to half the victim's deque in one visit; the first item runs now,
   the rest become local stealable work, and one more parked worker is
   woken to share it. *)
let try_steal ps w =
  let n = Array.length ps.workers in
  if n = 1 then None
  else begin
    w.t_steal_attempts <- w.t_steal_attempts + 1;
    let rec probe tries =
      if tries = 0 then None
      else begin
        let v = rand_below w (n - 1) in
        let v = if v >= w.wid then v + 1 else v in
        if Atomic.get ps.workers.(v).w_deep then probe (tries - 1)
        else
          match Atomic_deque.steal_batch ps.workers.(v).deque with
          | [] -> probe (tries - 1)
          | x :: rest ->
              w.steals <- w.steals + 1 + List.length rest;
              List.iter (Atomic_deque.push w.deque) rest;
              if rest <> [] then wake_one ps;
              Some x
      end
    in
    let rec round r =
      match probe (n - 1) with
      | Some _ as res -> res
      | None ->
          if r + 1 >= w.steal_rounds then None
          else begin
            for _ = 1 to steal_backoff_base lsl r do
              Domain.cpu_relax ()
            done;
            round (r + 1)
          end
    in
    let res = round 0 in
    adapt ps w ~failed:(match res with None -> true | Some _ -> false);
    res
  end

(* Sample the pool's active-worker count into this worker's private
   histogram (fairness ticks + park entries): the raw distribution
   behind [Sched_stats.active_p50] and the bench's measured
   oversubscription flag. *)
let sample_active ps w =
  let a = Elastic.active ps.elastic in
  let a = max 0 (min (Array.length ps.workers) a) in
  w.act_hist.(a) <- w.act_hist.(a) + 1

(* The structural shed gate: when more workers are awake than the
   elastic target wants, a worker with nothing local does NOT go
   stealing — returning None sends it to [park], which collapses it
   straight into deep park.  The test is count-based (active > target),
   not wid-based, so whichever workers actually hold work keep running
   and the excess sheds itself; with domains <= cores the target equals
   the worker count and this gate never fires. *)
let steal_or_shed ps w =
  if Elastic.over_target ps.elastic then None else try_steal ps w

let next_task ps w =
  w.tick <- w.tick + 1;
  if w.tick mod fairness_interval = 0 then begin
    (* fairness tick: under a steady local load, give the injection
       channel, the private inbox and the overflow FIFO a turn so
       external wake-ups and parked yielders make progress *)
    sample_active ps w;
    match take_injected ps w with
    | Some _ as r -> r
    | None -> (
        match take_inbox w with
        | Some _ as r -> r
        | None -> (
            match Queue.take_opt w.overflow with
            | Some _ as r -> r
            | None -> (
                match Atomic_deque.pop w.deque with
                | Some _ as r -> r
                | None -> steal_or_shed ps w)))
  end
  else
    match Atomic_deque.pop w.deque with
    | Some _ as r -> r
    | None -> (
        match Queue.take_opt w.overflow with
        | Some _ as r -> r
        | None -> (
            match take_inbox w with
            | Some _ as r -> r
            | None -> (
                match take_injected ps w with
                | Some _ as r -> r
                | None -> steal_or_shed ps w)))

(* Work visible to OTHER workers: the injection channel and the deques.
   Private overflow FIFOs are excluded on purpose -- only the owner can
   run them, and the owner never parks while its own is non-empty
   (next_task checks it on every path before returning None).  Private
   inboxes are likewise excluded here; a parking worker checks its OWN
   inbox via [parkable] below. *)
let work_available ps =
  (not (Mpsc_queue.is_empty ps.pinject))
  || Array.exists (fun w -> not (Atomic_deque.is_empty w.deque)) ps.workers

let parkable ps w =
  (not (Atomic.get ps.stop))
  && (not (work_available ps))
  && Mpsc_queue.is_empty w.inbox

(* The idle-KC policy (paper Table II), now three-tiered:

   1. STRUCTURAL SHED — the pool is over its active-worker target (only
      possible when domains > cores): this worker found nothing local
      and must not fight the workers that hold work for a shared core,
      so it collapses into deep park without spinning or stealing.  Its
      post-publication re-check is PRIVATE-ONLY (stop flag, own inbox):
      work elsewhere is exactly what it is shedding away from, and the
      enter_deep floor plus the shallow protocol below keep that work
      reachable by a non-deep worker.

   2. CHRONIC IDLE — woken [deep_after] consecutive times to find
      nothing (the pool cannot feed this many workers): deep park with
      the FULL parkable re-check, and the target decays one step so the
      structural gate learns the thinner width.

   3. SPIN-THEN-SHALLOW — the PR-3 protocol under the adaptive budget:
      spin briefly (BUSYWAIT — lowest wake latency), then park on the
      per-worker condvar (BLOCKING — no burn).

   Producers store work before reading the idle stacks; parkers publish
   themselves before re-checking — the Dekker handshake that makes a
   lost wake-up impossible.  The same handshake covers targeted
   deliveries: [push_targeted] pushes the inbox first and reads the
   stacks second, the parker publishes first and re-reads its inbox
   second.  A failed cancel means a waker already popped us and its
   token is in flight — consume it now instead of sleeping on it in a
   later parking round. *)
let park ps w =
  sample_active ps w;
  let el = ps.elastic in
  let deep_sleep () =
    Atomic.set w.w_deep true;
    w.t_deep_parks <- w.t_deep_parks + 1;
    await_token w;
    Atomic.set w.w_deep false;
    w.idle_streak <- 0
  in
  let stopping () = Atomic.get ps.stop in
  if (not (stopping ())) && Elastic.over_target el && Elastic.enter_deep el w.wid
  then begin
    if stopping () || not (Mpsc_queue.is_empty w.inbox) then begin
      if not (Elastic.cancel_deep el w.wid) then await_token w
    end
    else deep_sleep ()
  end
  else if
    (not (stopping ()))
    && w.idle_streak >= ps.ptune.deep_after
    && Elastic.enter_deep el w.wid
  then begin
    if not (parkable ps w) then begin
      if not (Elastic.cancel_deep el w.wid) then await_token w
    end
    else begin
      Elastic.decay_target el;
      deep_sleep ()
    end
  end
  else begin
    let rec spin i =
      if i > 0 && parkable ps w then begin
        w.t_spins <- w.t_spins + 1;
        Domain.cpu_relax ();
        spin (i - 1)
      end
    in
    spin w.spin_budget;
    if parkable ps w then begin
      Elastic.park el w.wid;
      if not (parkable ps w) then begin
        if not (Elastic.cancel el w.wid) then await_token w
      end
      else begin
        w.t_parks <- w.t_parks + 1;
        await_token w;
        w.idle_streak <- w.idle_streak + 1
      end
    end
  end

let worker_loop ps w =
  Domain.DLS.set pctx_key (Some { ps; w; tid = Thread.id (Thread.self ()) });
  (* a lazily-launched worker arrives here having just been popped off
     the deep stack: it is live again, and a victim candidate *)
  Atomic.set w.w_deep false;
  sample_active ps w;
  let rec go () =
    if not (Atomic.get ps.stop) then begin
      (match next_task ps w with
      | Some thunk -> (
          w.idle_streak <- 0;
          try thunk ()
          with exn ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set ps.failure None (Some (exn, bt)));
            pstop ps)
      | None -> park ps w);
      go ()
    end
  in
  go ();
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

  (* Weighted median of the active-worker samples: the pool width the
     run actually converged to (requested [domains] is what the caller
     asked for; this is what the host sustained). *)
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
  and deep = ref 0
  and wakes = ref 0
  and spins = ref 0
  and drains = ref 0 in
  Array.iter
    (fun w ->
      steals := !steals + w.steals;
      attempts := !attempts + w.t_steal_attempts;
      fails := !fails + w.t_steal_fails;
      parks := !parks + w.t_parks;
      deep := !deep + w.t_deep_parks;
      wakes := !wakes + Atomic.get w.t_wakes;
      spins := !spins + w.t_spins;
      drains := !drains + w.t_inj_drains;
      Array.iteri (fun i c -> hist.(i) <- hist.(i) + c) w.act_hist)
    ps.workers;
  {
    Sched_stats.domains = n;
    steals = !steals;
    steal_attempts = !attempts;
    steal_fails = !fails;
    parks = !parks;
    deep_parks = !deep;
    wakes = !wakes;
    spins = !spins;
    inj_drains = !drains;
    active_now = Elastic.active ps.elastic;
    target_now = Elastic.target ps.elastic;
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
     never while we hold it waiting on the child). *)
  ps.pspawn <-
    (fun wid ->
      let w = ps.workers.(wid) in
      if
        (not (Atomic.get w.w_launched))
        && Atomic.compare_and_set w.w_launched false true
      then begin
        (* ulplint: allow raw-mutex-in-fiber -- run_parallel worker-domain launch accounting between raw domains, outside any fiber engine *)
        Mutex.lock ps.done_mutex;
        ps.n_running <- ps.n_running + 1;
        ps.pdomains <- Domain.spawn (fun () -> worker_loop ps w) :: ps.pdomains;
        Mutex.unlock ps.done_mutex
      end);
  let fb = pnew_fiber ps in
  Mpsc_queue.push ps.pinject (fun () -> pexec fb (fun () -> phandle ps fb main));
  (* Eager fleet = the elastic target (min domains cores): on a
     well-provisioned host every requested domain starts now, exactly
     as before; on an oversubscribed one the excess stays unlaunched
     in deep park until pressure re-enlists it. *)
  for wid = 1 to Elastic.target ps.elastic - 1 do
    ps.pspawn wid
  done;
  worker_loop ps ps.workers.(0);
  (* KCs may be created up to the very last thunk a helper runs, so
     only reap them once every worker loop has exited; they must be
     shut down BEFORE joining the helper domains -- a domain does not
     terminate while OS threads it created (the KCs first leased
     there) are still alive.  Shutdown drains each KC's queue, pending
     recycle jobs included. *)
  (* ulplint: allow raw-mutex-in-fiber -- run_parallel shutdown handshake between raw domains, outside any fiber engine *)
  Mutex.lock ps.done_mutex;
  while ps.n_running > 0 do
    (* ulplint: allow raw-mutex-in-fiber -- run_parallel shutdown handshake between raw domains, outside any fiber engine *)
    Condition.wait ps.done_cond ps.done_mutex
  done;
  let helpers = ps.pdomains in
  ps.pdomains <- [];
  Mutex.unlock ps.done_mutex;
  List.iter Executor.shutdown (Kc_pool.all ps.kcs);
  List.iter Domain.join helpers;
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

(* The calling fiber's original KC, leased from its run's pool on first
   use.  Only the fiber itself touches its [executor] field and a fiber
   runs on one domain at a time, so the field needs no locking. *)
let lease_kc () =
  match worker_ctx () with
  | None -> raise Not_in_scheduler
  | Some c -> (
      let fb = self () in
      match fb.executor with
      | Some e -> e
      | None ->
          let e = Kc_pool.lease c.ps.kcs ~create:Executor.create in
          fb.executor <- Some e;
          e)
