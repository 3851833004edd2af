(* Park/wake shim standing in for [Fiber_rt.Fiber] inside lib/check:
   the copies of channel.ml, sync.ml and scope.ml compiled here need
   [suspend], [suspend_token] + [Wake], [num_workers] (for Sync), and
   [spawn] (for Scope).

   The real runtime's contract: [register] receives a wake function
   callable exactly once from any OS thread; the fiber stays parked
   until it fires.  The model: the wake function performs a traced
   write to a fresh flag, and the parked thread is a guarded step that
   is enabled once the flag is set.  [register] itself runs in the
   suspending thread's context, so traced operations inside it (for
   Channel: the Mutex.unlock after enqueueing the waker; for Sync: the
   CAS enqueue of the waiter) remain separate scheduling points -- the
   window in which a lost wakeup would hide.  An unfired token is a
   permanently-disabled guarded step, so a lost wakeup surfaces as the
   checker's deadlock detection. *)

let suspend register =
  let woken = Atomic.make false in
  register (fun () -> Atomic.set woken true);
  Sched.guarded_step ~kind:Sched.Wait ~obj:(Atomic.id woken) ~note:"parked"
    ~enabled:(fun () -> Atomic.peek woken)
    (fun () -> ())

module Wake = struct
  (* One-shot token: [fired] is the claim (exactly one [fire] returns
     true, modelled by a traced exchange), [woken] un-parks the guarded
     step.  Both are traced, so the claim and the wake are separate
     scheduling points, as in the real engine. *)
  type token = { fired : bool Atomic.t; woken : bool Atomic.t }

  let fire t =
    if Atomic.exchange t.fired true then false
    else begin
      Atomic.set t.woken true;
      true
    end
end

let suspend_token register =
  let tok = { Wake.fired = Atomic.make false; woken = Atomic.make false } in
  register tok;
  Sched.guarded_step ~kind:Sched.Wait
    ~obj:(Atomic.id tok.Wake.woken)
    ~note:"parked(token)"
    ~enabled:(fun () -> Atomic.peek tok.Wake.woken)
    (fun () -> ())

(* No pool either, so Sync's pre-park retry never runs: every failed
   first try parks at once, the smallest state space with the same
   transitions (a retry is one more [try_lock] the park path's CAS
   re-check already covers). *)
let num_workers () = None

(* Inline spawn: the child runs to completion inside the calling
   simulated thread.  Scope's CAS protocol (enter/fail/leave racing
   across scenario threads) is what the checker explores; fiber
   placement is the production engines' concern. *)
let spawn body = body ()
let spawn_on ~worker:_ body = body ()
