(* Elastic worker-pool accounting: the state machine behind the
   oversubscription-adaptive scheduler of [Fiber.run_parallel].

   Two Treiber stacks of parked worker ids share one protocol:

   - [shallow]: the ordinary idle stack (PR 3).  A worker that finds no
     work publishes itself here and sleeps; any producer pops exactly
     one id per unit of new work ([wake]) and owes that worker one wake
     token.

   - [deep]: collapsed workers.  A worker enters deep park either
     because the pool is over its active-worker [target] (the
     oversubscribed signature: more runnable workers than cores can
     serve, so the excess sheds itself instead of stealing) or because
     it is chronically idle (woken again and again to find nothing).
     Deep-parked workers are EXCLUDED from [wake]'s round-robin: routine
     work never resurrects them.  They come back in exactly three ways:
     a targeted [claim] (a reactor or [spawn_on] delivery aimed at their
     private inbox), a [drain] at stop, or sustained *injection
     pressure* -- [wake ~foreign:true] misses accumulating past
     [re_enlist_after], which pops one deep worker and raises [target]
     by one (bounded by [total]).

   [target] starts at the caller's estimate of real parallelism
   (min domains cores) and moves both ways: pressure re-enlists raise
   it toward [total]; a chronic-idle deep park decays it back toward
   the initial [base] ([decay_target]).  [n_deep] counts deep-parked
   workers; the CAS guard in [enter_deep] keeps at least one worker out
   of deep park, so work left on the injection channel or a deque is
   always within reach of an active (or shallow-parked, hence wakeable)
   worker.

   Every transition is a CAS retry loop, a fetch-and-add, or an
   exchange -- never a get-then-set: a plain read-compute-store on
   [pressure] loses concurrent increments, the re-enlist threshold is
   never reached, and a deep-parked worker sleeps through the very
   pressure that should revive it.  That lost re-enlist is exactly the
   seeded bug lib/check's [Buggy_elastic] twin carries; the explorer
   catches it as a replayable deadlock.

   Factored out of [Fiber] (like [Idle_waker], which supplies the
   stacks) so lib/check recompiles this exact code against traced
   atomics. *)

type t = {
  shallow : Idle_waker.t;
  deep : Idle_waker.t;
  n_deep : int Atomic.t;
  pressure : int Atomic.t; (* re-enlist-eligible wake misses since last re-enlist *)
  target : int Atomic.t; (* active-worker target, in [1, total] *)
  base : int; (* initial target; chronic-idle decay floor *)
  total : int;
  re_enlist_after : int;
}

let create ~total ~target ~re_enlist_after =
  if total < 1 then invalid_arg "Elastic.create: total must be >= 1";
  let target = max 1 (min total target) in
  {
    shallow = Idle_waker.create ();
    deep = Idle_waker.create ();
    n_deep = Atomic.make 0;
    pressure = Atomic.make 0;
    target = Atomic.make target;
    base = target;
    total;
    re_enlist_after = max 1 re_enlist_after;
  }

let total t = t.total
let target t = Atomic.get t.target
let n_deep t = Atomic.get t.n_deep
let active t = t.total - Atomic.get t.n_deep
let pressure t = Atomic.get t.pressure

(* More workers awake than the target wants: the pool should shed. *)
let over_target t = t.total - Atomic.get t.n_deep > Atomic.get t.target

(* ---- shallow side: the PR-3 idle-stack protocol, verbatim ---- *)

let park t wid = Idle_waker.push t.shallow wid
let cancel t wid = Idle_waker.take t.shallow wid

(* ---- deep side ---- *)

(* Claim a deep slot and publish: [true] = the caller is now deep-parked
   (it must re-check its private work, then sleep).  The CAS guard keeps
   [n_deep] <= total - 1 -- the last active worker never collapses, so
   every unit of published work has a live (or shallow-wakeable)
   worker responsible for it. *)
let rec enter_deep t wid =
  let d = Atomic.get t.n_deep in
  if d + 1 >= t.total then false
  else if Atomic.compare_and_set t.n_deep d (d + 1) then begin
    Idle_waker.push t.deep wid;
    true
  end
  else enter_deep t wid

(* Remove [wid] from the deep stack (parking cancelled: private work or
   stop arrived while publishing).  [true] = removed, slot released;
   [false] = a re-enlister or targeted claim got there first and its
   wake token is in flight -- the caller must consume it, not sleep on
   a later one. *)
let cancel_deep t wid =
  if Idle_waker.take t.deep wid then begin
    ignore (Atomic.fetch_and_add t.n_deep (-1));
    true
  end
  else false

(* Chronic-idle collapse decays the target back toward its initial
   value: the pool proved it cannot keep this many workers fed. *)
let rec decay_target t =
  let cur = Atomic.get t.target in
  if cur > t.base then
    if not (Atomic.compare_and_set t.target cur (cur - 1)) then decay_target t

let rec raise_target t =
  let cur = Atomic.get t.target in
  if cur < t.total then
    if not (Atomic.compare_and_set t.target cur (cur + 1)) then raise_target t

(* ---- wake side ---- *)

(* Pop one wakeable worker for a unit of new work, or [None] (everyone
   is busy -- the work will be found by a running worker).  The common
   nobody-idle path is one atomic read.

   [foreign] marks pushes from outside the worker pool (executors, the
   reactor): a worker-local push is always followed by the producer
   itself draining its own deque, but foreign work can sit on the
   injection channel while every active worker is saturated.  Foreign
   misses therefore always accumulate [pressure]; worker-local misses
   only do so while the pool is BELOW its own target (chronic-idle
   collapses left a gap the target wants refilled) -- on a converged
   oversubscribed pool (active = target) local churn must NOT
   resurrect the deep sleepers it just shed.  Crossing
   [re_enlist_after] converts the accumulated misses into one deep
   re-enlist (pop a deep worker, raise the target) -- the bounded
   re-expansion path.  The exchange-to-zero makes concurrent threshold
   crossings race safely: exactly one caller consumes the accumulated
   pressure. *)
let wake ?(foreign = false) t =
  match Idle_waker.pop t.shallow with
  | Some _ as hit -> hit
  | None ->
      let d = Atomic.get t.n_deep in
      if d > 0 && (foreign || t.total - d < Atomic.get t.target) then begin
        let p = Atomic.fetch_and_add t.pressure 1 in
        if p + 1 >= t.re_enlist_after && Atomic.exchange t.pressure 0 > 0 then (
          match Idle_waker.pop t.deep with
          | Some wid ->
              (* ulplint: allow atomic-check-then-faa -- the n_deep read is only a fast-path hint; the decrement pays for a deep-stack pop that succeeded by its own CAS, so it can never over-count *)
              ignore (Atomic.fetch_and_add t.n_deep (-1));
              raise_target t;
              Some wid
          | None -> None)
        else None
      end
      else None

(* Targeted wake for a private-inbox delivery: remove [wid] from
   whichever stack holds it.  [true] = the caller owes [wid] one wake
   token.  A deep hit releases the slot but does NOT raise the target:
   an affinity delivery says this one worker is wanted, not that the
   pool is under-provisioned. *)
let claim t wid =
  if Idle_waker.take t.shallow wid then true
  else if Idle_waker.take t.deep wid then begin
    ignore (Atomic.fetch_and_add t.n_deep (-1));
    true
  end
  else false

(* Stop: every parked worker, shallow or deep, gets a token. *)
let drain t =
  let d = Idle_waker.drain t.deep in
  (match d with
  | [] -> ()
  | l -> ignore (Atomic.fetch_and_add t.n_deep (-List.length l)));
  Idle_waker.drain t.shallow @ d

let snapshot_shallow t = Idle_waker.snapshot t.shallow
let snapshot_deep t = Idle_waker.snapshot t.deep
