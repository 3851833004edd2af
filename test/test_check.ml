(* Model-checked concurrency scenarios for the lock-free fiber runtime.

   Everything here runs on lib/check's deterministic interleaving
   scheduler: the Atomic_deque / Mpsc_queue / Sync under test are the
   SAME sources as production (recompiled against traced shims), and the
   explorer enumerates the interleavings of 2-3 simulated domains that
   the tier-1 stress tests can only sample by luck.

   The suite also proves the checker itself has teeth: a deliberately
   seeded bug (Check.Buggy_deque downgrades the pop CAS to a plain
   read) must be caught, its schedule must replay, and the fuzzer's
   CHECK_SEED must reproduce it. *)

module Sched = Check.Sched
module Adq = Check.Atomic_deque
module Buggy = Check.Buggy_deque
module Mpsc = Check.Mpsc_queue
module Compl = Check.Completion
module Buggy_compl = Check.Buggy_completion
module Atomic' = Check.Atomic
module Cfiber = Check.Fiber
module Consistency = Core.Consistency

(* On an unexpected interleaving bug: print the schedule trace, dump it
   where CI picks it up as an artifact, and fail the test. *)
let trace_file = "CHECK_TRACE.txt"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let expect_pass name outcome =
  match outcome with
  | Sched.Pass stats -> stats
  | Sched.Bug (f, _) ->
      Sched.dump_failure ~file:trace_file f;
      Sched.print_failure f;
      Alcotest.failf "%s: interleaving bug (schedule dumped to %s)" name
        trace_file

let expect_bug name outcome =
  match outcome with
  | Sched.Bug (f, stats) -> (f, stats)
  | Sched.Pass stats ->
      Alcotest.failf "%s: seeded bug NOT caught (%s)" name
        (Format.asprintf "%a" Sched.pp_stats stats)

(* ---------- scenario: the size-1 pop-vs-steal CAS race ---------- *)

(* Parameterized over the deque implementation so the same scenario
   drives both the faithful copy and the seeded-bug copy. *)
module type DEQUE = sig
  type 'a t

  val create : dummy:'a -> 'a t
  val push : 'a t -> 'a -> unit
  val pop : 'a t -> 'a option
  val steal : 'a t -> 'a option
  val steal_batch : ?max_batch:int -> 'a t -> 'a list
end

let pop_steal_race (module D : DEQUE) () =
  let d = D.create ~dummy:(-1) in
  D.push d 42;
  let popped = ref None and stolen = ref None in
  ( [ (fun () -> popped := D.pop d); (fun () -> stolen := D.steal d) ],
    fun () ->
      match (!popped, !stolen) with
      | Some _, Some _ -> failwith "last element claimed twice"
      | None, None -> failwith "last element lost"
      | _ -> () )

(* ---------- scenario: push/steal/pop conservation, two thieves ------ *)

let deque_conservation () =
  let d = Adq.create ~dummy:(-1) in
  let claims = Array.make 3 0 in
  let claim = function Some i -> claims.(i) <- claims.(i) + 1 | None -> () in
  ( [
      (fun () ->
        (* owner: pushes interleaved with pops, so the last-element CAS
           and the bottom/top fence are both exercised *)
        for i = 0 to 2 do
          Adq.push d i;
          if i land 1 = 1 then claim (Adq.pop d)
        done);
      (fun () -> claim (Adq.steal d));
      (fun () -> claim (Adq.steal d));
    ],
    fun () ->
      let rec drain () =
        match Adq.pop d with
        | Some i ->
            claim (Some i);
            drain ()
        | None -> ()
      in
      drain ();
      Array.iteri
        (fun i n ->
          if n <> 1 then
            failwith (Printf.sprintf "item %d claimed %d times" i n))
        claims )

(* ---------- scenario: buffer growth under a concurrent thief -------- *)

let deque_growth () =
  (* initial buffer is 8 slots; the 9th push grows it while a thief
     holds the stale buffer *)
  let n = 9 in
  let d = Adq.create ~dummy:(-1) in
  for i = 0 to 6 do
    Adq.push d i
  done;
  let claims = Array.make n 0 in
  let claim = function Some i -> claims.(i) <- claims.(i) + 1 | None -> () in
  ( [
      (fun () ->
        Adq.push d 7;
        Adq.push d 8 (* the growing push *);
        claim (Adq.pop d));
      (fun () ->
        claim (Adq.steal d);
        claim (Adq.steal d));
    ],
    fun () ->
      let rec drain () =
        match Adq.pop d with
        | Some i ->
            claim (Some i);
            drain ()
        | None -> ()
      in
      drain ();
      Array.iteri
        (fun i c ->
          if c <> 1 then
            failwith (Printf.sprintf "item %d claimed %d times after grow" i c))
        claims )

(* ---------- scenario: steal-half vs the owner's free pops ---------- *)

(* The race that forbids a wide CAS in steal_batch: the owner free-takes
   slot [bottom-1] without a CAS whenever its post-decrement [top] read
   shows more than one element.  3 items + 2 owner pops is the minimal
   overlap window -- the faithful per-element-CAS batch must conserve
   every item, the wide-CAS variant must double-claim one. *)
let steal_batch_vs_pop (module D : DEQUE) () =
  let d = D.create ~dummy:(-1) in
  for i = 0 to 2 do
    D.push d i
  done;
  let claims = Array.make 3 0 in
  (* the double-claim can also surface as the thief returning a slot the
     owner already vacated (the dummy) -- same root cause, same verdict *)
  let claim i =
    if i < 0 then failwith "vacated slot claimed by the thief"
    else claims.(i) <- claims.(i) + 1
  in
  let claim1 = function Some i -> claim i | None -> () in
  ( [
      (fun () ->
        claim1 (D.pop d);
        claim1 (D.pop d));
      (fun () -> List.iter claim (D.steal_batch d));
    ],
    fun () ->
      let rec drain () =
        match D.pop d with
        | Some i ->
            claim1 (Some i);
            drain ()
        | None -> ()
      in
      drain ();
      Array.iteri
        (fun i n ->
          if n <> 1 then
            failwith (Printf.sprintf "item %d claimed %d times" i n))
        claims )

(* ---------- scenario: lock-free completion, finish vs joiners ------- *)

(* Parameterized over the completion implementation so the same
   scenario drives both the faithful copy and the seeded-bug copy. *)
module type COMPLETION = sig
  type 'a t

  val create : unit -> 'a t
  val is_done : 'a t -> bool
  val status : 'a t -> 'a option
  val add_joiner : 'a t -> (unit -> unit) -> unit
  val finish : 'a t -> 'a -> unit
end

(* Two joiners race the finisher.  Every interleaving must wake each
   joiner EXACTLY once -- whether its CAS lands before the finisher's
   exchange (the finisher runs the wake) or loses against Done (the
   joiner wakes itself).  A lost wake leaves the joiner's wait_until
   unsatisfiable, which the checker reports as a deadlock -- exactly
   how the seeded get-then-set [Buggy_completion.finish] fails. *)
let completion_race (module C : COMPLETION) () =
  let c = C.create () in
  let w0 = Atomic'.make 0 and w1 = Atomic'.make 0 in
  ( [
      (fun () -> C.finish c ());
      (fun () ->
        C.add_joiner c (fun () -> Atomic'.incr w0);
        Sched.wait_until ~on:(Atomic'.id w0) (fun () -> Atomic'.peek w0 > 0));
      (fun () ->
        C.add_joiner c (fun () -> Atomic'.incr w1);
        Sched.wait_until ~on:(Atomic'.id w1) (fun () -> Atomic'.peek w1 > 0));
    ],
    fun () ->
      if not (C.is_done c) then failwith "completion never reached Done";
      List.iteri
        (fun i w ->
          let n = Atomic'.peek w in
          if n <> 1 then
            failwith (Printf.sprintf "joiner %d woken %d times" i n))
        [ w0; w1 ] )

(* A joiner parking vs the finish that publishes a result, on a
   Completion carrying a payload (the cell behind Fiber.join and
   Scope.await): the joiner registers its wake and parks (a guarded
   step on the token); the finish exchange must either snatch the
   registration or make the registration's CAS fail and see Done.  The
   seeded get-then-set finish publishes the result over the stale
   joiner list -- the joiner sleeps forever (Deadlock). *)
let joiner_vs_finish (module C : COMPLETION) () =
  let c = C.create () in
  ( [
      (fun () ->
        Cfiber.suspend_token (fun tok ->
            C.add_joiner c (fun () -> ignore (Cfiber.Wake.fire tok))));
      (fun () -> C.finish c 7);
    ],
    fun () ->
      match C.status c with
      | Some 7 -> ()
      | _ -> failwith "completion: result not published" )

(* Racing parked joiners on one cell: both register, both must be
   woken by the single finish. *)
let two_joiners (module C : COMPLETION) () =
  let c = C.create () in
  let woken = ref 0 in
  let waiter () =
    Cfiber.suspend_token (fun tok ->
        C.add_joiner c (fun () -> ignore (Cfiber.Wake.fire tok)));
    incr woken
  in
  ( [ waiter; waiter; (fun () -> C.finish c 1) ],
    fun () ->
      if !woken <> 2 then
        failwith (Printf.sprintf "completion: woke %d of 2" !woken) )

(* ---------- scenario: reactor Readiness, register vs post ---------- *)

(* Parameterized over the readiness-cell implementation so the same
   scenario drives both the faithful copy (recompiled from
   lib/net/readiness.ml) and the seeded-bug copy. *)
module type READINESS = sig
  type t

  val create : unit -> t
  val await : t -> (unit -> unit) -> [ `Registered | `Was_ready ]
  val post : t -> [ `Woke | `Memo | `Already ]
end

(* The reactor's fundamental race: a fiber registering interest in fd
   readiness vs the reactor's turn holder posting the edge.  Every interleaving
   must run the waiter EXACTLY once -- either the post finds the
   registration (`Woke), or the registration consumes the Ready memo
   (`Was_ready) and the fiber never parks.  The seeded get-then-set
   [Buggy_reactor.post] overwrites a registration that lands in its
   read/store window, stranding the waiter's wait_until: the checker
   reports the lost wakeup as a deadlock. *)
let readiness_register_vs_post (module R : READINESS) () =
  let cell = R.create () in
  let woken = Atomic'.make 0 in
  ( [
      (fun () ->
        match R.await cell (fun () -> Atomic'.incr woken) with
        | `Registered ->
            Sched.wait_until ~on:(Atomic'.id woken) (fun () ->
                Atomic'.peek woken > 0)
        | `Was_ready -> ());
      (fun () -> ignore (R.post cell));
    ],
    fun () ->
      let n = Atomic'.peek woken in
      if n <> 1 then failwith (Printf.sprintf "waiter woken %d times" n) )

(* Two racing posters (the turn holder + a shutdown/unwatch path) against
   one registration: at most one of them may claim the waiter.  The
   faithful CAS Waiting->Idle has exactly one winner; the seeded
   get-then-set lets both read Waiting and both run the wake. *)
let readiness_two_posters (module R : READINESS) () =
  let cell = R.create () in
  let woken = Atomic'.make 0 in
  ( [
      (fun () ->
        match R.await cell (fun () -> Atomic'.incr woken) with
        | `Registered ->
            Sched.wait_until ~on:(Atomic'.id woken) (fun () ->
                Atomic'.peek woken > 0)
        | `Was_ready -> ());
      (fun () -> ignore (R.post cell));
      (fun () -> ignore (R.post cell));
    ],
    fun () ->
      let n = Atomic'.peek woken in
      if n <> 1 then failwith (Printf.sprintf "waiter woken %d times" n) )

(* The await_fd verdict protocol in miniature: readiness and a timer
   race to claim one wake token.  Each side CASes the verdict first and
   fires the token only on winning, so the fiber resumes exactly once
   with exactly one verdict -- the invariant behind Reactor.await_fd's
   timeout handling. *)
let readiness_timeout_vs_ready (module R : READINESS) () =
  let cell = R.create () in
  let verdict = Atomic'.make 0 (* 0 none / 1 ready / 2 timeout *) in
  let fired = Atomic'.make 0 (* the wake token: must fire exactly once *) in
  let claim v = if Atomic'.compare_and_set verdict 0 v then Atomic'.incr fired in
  ( [
      (fun () ->
        match R.await cell (fun () -> claim 1) with
        | `Registered | `Was_ready ->
            Sched.wait_until ~on:(Atomic'.id fired) (fun () ->
                Atomic'.peek fired > 0));
      (fun () -> ignore (R.post cell) (* the fd went ready *));
      (fun () -> claim 2 (* the deadline timer fired *));
    ],
    fun () ->
      let f = Atomic'.peek fired and v = Atomic'.peek verdict in
      if f <> 1 then failwith (Printf.sprintf "token fired %d times" f);
      if v <> 1 && v <> 2 then failwith "no verdict claimed" )

(* ---------- scenario: the routed wake path (Idle_waker) ---------- *)

(* Parameterized over the idle-stack implementation so the same
   scenarios drive the faithful copy (recompiled from
   lib/fiber_rt/idle_waker.ml -- the structure behind a reactor
   turn's end-of-turn notifications) and the seeded-bug copy. *)
module type IDLE = sig
  type t

  val create : unit -> t
  val push : t -> int -> unit
  val take : t -> int -> bool
  val pop : t -> int option
  val snapshot : t -> int list
end

(* A turn's end-of-turn notify issuing a targeted [take] of worker 0 while
   another waker [pop]s "any one idle", workers 0 and 1 both parked.
   Conservation: every id is removed by exactly one caller or still on
   the stack.  The seeded get-then-set [take] publishes a successor
   computed from a stale read, silently undoing the concurrent pop --
   the popped worker is resurrected, and a later waker will spend a
   token on the ghost while a genuinely parked worker sleeps on. *)
let idle_take_vs_pop (module I : IDLE) () =
  let t = I.create () in
  I.push t 0;
  I.push t 1;
  let took = ref false and popped = ref None in
  ( [ (fun () -> took := I.take t 0); (fun () -> popped := I.pop t) ],
    fun () ->
      let removed =
        (if !took then [ 0 ] else [])
        @ match !popped with Some w -> [ w ] | None -> []
      in
      let final = List.sort compare (removed @ I.snapshot t) in
      if final <> [ 0; 1 ] then
        failwith
          (Printf.sprintf "ids not conserved: {%s}"
             (String.concat ";" (List.map string_of_int final))) )

(* Two targeted wakes (a turn's end-of-turn notify and a worker's
   [spawn_on]) aimed at the same parked worker:
   [take] must have exactly one winner, or two wake tokens are minted
   where the inbox-delivery protocol promises one. *)
let idle_two_flushes (module I : IDLE) () =
  let t = I.create () in
  I.push t 0;
  let a = ref false and b = ref false in
  ( [ (fun () -> a := I.take t 0); (fun () -> b := I.take t 0) ],
    fun () ->
      (match (!a, !b) with
      | true, true -> failwith "worker 0 taken twice: two wake tokens minted"
      | false, false -> failwith "worker 0 taken by nobody"
      | _ -> ());
      if I.snapshot t <> [] then failwith "stack not drained" )

(* A worker cancelling its own parking ([take] on itself, the PR-3
   park/wake handshake) vs a reactor waker popping it: exactly one side
   may claim the id.  When the waker wins, its wake token is in flight
   and the worker must consume it (wait_until), not leak it. *)
let idle_wake_vs_park (module I : IDLE) () =
  let t = I.create () in
  let tokens = Atomic'.make 0 in
  let cancelled = ref false and woke = ref false in
  I.push t 0;
  ( [
      (fun () ->
        (* worker 0: found work, cancels its parking *)
        if I.take t 0 then cancelled := true
        else
          (* a waker got there first: its token must arrive *)
          Sched.wait_until ~on:(Atomic'.id tokens) (fun () ->
              Atomic'.peek tokens > 0));
      (fun () ->
        match I.pop t with
        | Some 0 ->
            woke := true;
            Atomic'.incr tokens
        | Some w -> failwith (Printf.sprintf "popped ghost worker %d" w)
        | None -> ());
    ],
    fun () ->
      if !cancelled && !woke then failwith "worker 0 claimed twice";
      if (not !cancelled) && not !woke then failwith "worker 0 claimed by nobody";
      if I.snapshot t <> [] then failwith "stack not drained" )

(* ---------- scenario: Readiness rebound by a second poster ---------- *)

(* A re-armed cell: a fiber awaits, is woken by poster A, re-arms the
   same cell, and is woken again by poster B -- the shape of
   perfbench's arrival clock, whose consumer re-arms one cell that a
   clock domain posts.  B's post races the
   re-registration: the CAS cell
   must deliver exactly one wake per registration -- post either finds
   the registration or leaves the Ready memo the re-await consumes.
   The seeded get-then-set post can overwrite the re-registration and
   strand the fiber.  (B waits for the first wake to be consumed.) *)
let readiness_rebind (module R : READINESS) () =
  let cell = R.create () in
  let woken = Atomic'.make 0 in
  ( [
      (fun () ->
        (match R.await cell (fun () -> Atomic'.incr woken) with
        | `Registered ->
            Sched.wait_until ~on:(Atomic'.id woken) (fun () ->
                Atomic'.peek woken >= 1)
        | `Was_ready -> ());
        (* rebind: the next await_fd re-arms the same cell *)
        match R.await cell (fun () -> Atomic'.incr woken) with
        | `Registered ->
            Sched.wait_until ~on:(Atomic'.id woken) (fun () ->
                Atomic'.peek woken >= 2)
        | `Was_ready -> ());
      (fun () -> ignore (R.post cell) (* poster A: the first edge *));
      (fun () ->
        (* poster B: the second edge, after the first wake *)
        Sched.wait_until ~on:(Atomic'.id woken) (fun () ->
            Atomic'.peek woken >= 1);
        ignore (R.post cell));
    ],
    fun () ->
      let n = Atomic'.peek woken in
      if n <> 2 then failwith (Printf.sprintf "woken %d times, want 2" n) )

(* ---------- scenario: MPSC enqueue vs single-consumer drain --------- *)

let mpsc_enqueue_drain () =
  let q = Mpsc.create () in
  let got = ref [] in
  ( [
      (fun () ->
        Mpsc.push q (1, 0);
        Mpsc.push q (1, 1));
      (fun () ->
        Mpsc.push q (2, 0);
        Mpsc.push q (2, 1));
      (fun () ->
        (* bounded drain: the post-condition sweeps up leftovers, so no
           busy-wait loop blows up the state space *)
        for _ = 1 to 2 do
          got := !got @ Mpsc.pop_all q
        done);
    ],
    fun () ->
      let all = !got @ Mpsc.pop_all q in
      if List.length all <> 4 then
        failwith
          (Printf.sprintf "%d items out of 4 survived" (List.length all));
      List.iter
        (fun p ->
          let seq =
            List.filter_map (fun (p', v) -> if p' = p then Some v else None) all
          in
          if seq <> [ 0; 1 ] then
            failwith
              (Printf.sprintf "producer %d order broken under batching" p))
        [ 1; 2 ] )

(* ---------- scenario: couple() racing work-stealing (BLT) ----------- *)

(* The paper's system-call-consistency invariant, as a protocol model:
   a UC's coupled sections always execute on its ORIGINAL KC (the home
   executor), even when the runnable half of the fiber migrates to a
   stealing worker between them.  Thread 0 is the worker that runs the
   fiber first, thread 1 is the home executor (KC id 100), thread 2 is
   the stealing worker (KC id 1).  With [buggy:true] the stolen fiber
   runs its second syscall inline on the thief's KC -- exactly what the
   BLT couple() protocol forbids -- and Consistency.Enforce must fire. *)
let couple_vs_steal ~buggy () =
  let cons = Consistency.create ~mode:Enforce () in
  let fired = ref 0 in
  Consistency.set_hook cons (fun _ -> incr fired);
  let home = 100 in
  let syscall kc =
    ignore
      (Consistency.check cons ~time:0. ~ulp_name:"uc0" ~syscall:"getpid"
         ~expected_tid:home ~actual_tid:kc)
  in
  let jobs : (int -> unit) Mpsc.t = Mpsc.create () in
  let submitted = Atomic'.make 0 in
  let submit job =
    Mpsc.push jobs job;
    Atomic'.incr submitted
  in
  let wake_q : int Mpsc.t = Mpsc.create () in
  let woken = Atomic'.make 0 in
  let flag2 = Atomic'.make false in
  let jobs_expected = if buggy then 1 else 2 in
  ( [
      (* worker 0: fiber segment A -- couple #1, then the UC suspends *)
      (fun () ->
        submit (fun kc ->
            syscall kc;
            (* the wake path: executor -> MPSC -> whichever worker *)
            Mpsc.push wake_q 1;
            Atomic'.incr woken));
      (* the home executor: every job runs with ITS kc id *)
      (fun () ->
        let ran = ref 0 in
        while !ran < jobs_expected do
          Sched.wait_until
            ~on:(Atomic'.id submitted)
            (fun () -> Atomic'.peek submitted > !ran);
          let batch = Mpsc.pop_all jobs in
          List.iter
            (fun job ->
              job home;
              incr ran)
            batch
        done);
      (* worker 1: steals the woken continuation, runs fiber segment B *)
      (fun () ->
        Sched.wait_until ~on:(Atomic'.id woken) (fun () ->
            Atomic'.peek woken > 0);
        ignore (Mpsc.pop_all wake_q);
        if buggy then begin
          (* the downgraded protocol: syscall inline on the thief *)
          syscall 1;
          Atomic'.set flag2 true
        end
        else
          (* couple(): back to the home executor, never the thief *)
          submit (fun kc ->
              syscall kc;
              Atomic'.set flag2 true);
        Sched.wait_until ~on:(Atomic'.id flag2) (fun () ->
            Atomic'.peek flag2));
    ],
    fun () ->
      if !fired <> 0 then failwith "Consistency.Enforce fired";
      if not (Atomic'.peek flag2) then failwith "fiber never resumed";
      if Consistency.checks cons <> 2 then
        failwith
          (Printf.sprintf "expected 2 consistency checks, saw %d"
             (Consistency.checks cons)) )

(* ---------- scenario: Sync primitives and their seeded twins ------- *)

(* The copied fiber-aware synchronization (lib/fiber_rt/sync.ml) under
   the traced shims: parking is the shim's guarded step, so a lost
   wakeup — the bug family every seeded twin reintroduces — surfaces as
   the checker's deadlock detection.  The checker's Fiber shim reports
   no worker pool, so every failed first try parks at once: the
   pre-park retry of a multi-worker run only widens the state space
   without adding transitions the park path does not already have. *)

module Sy = Check.Sync
module Bsy = Check.Buggy_sync
module Sco = Check.Scope
module Bsco = Check.Buggy_scope

module type MUTEX = sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
end

module Good_mutex : MUTEX = struct
  type t = Sy.Mutex.t

  let create = Sy.Mutex.create
  let lock = Sy.Mutex.lock
  let unlock = Sy.Mutex.unlock
end

module Bad_mutex : MUTEX = struct
  type t = Bsy.Mutex.t

  let create = Bsy.Mutex.create
  let lock = Bsy.Mutex.lock
  let unlock = Bsy.Mutex.unlock
end

(* N threads through one critical section: a traced gauge counts
   occupants, so a mutual-exclusion failure is an immediate bug, and a
   lost handoff wake (the seeded get-then-set unlock) strands a parked
   locker — a deadlock. *)
let mutex_exclusion ?(threads = 3) (module M : MUTEX) () =
  let m = M.create () in
  let in_cs = Atomic'.make 0 in
  let body () =
    M.lock m;
    if Atomic'.fetch_and_add in_cs 1 <> 0 then
      failwith "mutual exclusion violated";
    Atomic'.decr in_cs;
    M.unlock m
  in
  ( List.init threads (fun _ -> body),
    fun () ->
      if Atomic'.peek in_cs <> 0 then failwith "critical section not empty" )

module type CONDVAR = sig
  type mutex
  type t

  val mcreate : unit -> mutex
  val lock : mutex -> unit
  val unlock : mutex -> unit
  val create : unit -> t
  val wait : t -> mutex -> unit
  val signal : t -> unit
end

module Good_cond : CONDVAR = struct
  type mutex = Sy.Mutex.t
  type t = Sy.Condition.t

  let mcreate = Sy.Mutex.create
  let lock = Sy.Mutex.lock
  let unlock = Sy.Mutex.unlock
  let create = Sy.Condition.create
  let wait = Sy.Condition.wait
  let signal = Sy.Condition.signal
end

(* The buggy condition pairs with the FAITHFUL mutex: the seeded bug is
   purely the wait protocol's unlock-before-publish ordering. *)
module Bad_cond : CONDVAR = struct
  type mutex = Sy.Mutex.t
  type t = Bsy.Condition.t

  let mcreate = Sy.Mutex.create
  let lock = Sy.Mutex.lock
  let unlock = Sy.Mutex.unlock
  let create = Bsy.Condition.create
  let wait = Bsy.Condition.wait
  let signal = Bsy.Condition.signal
end

(* The seeded get-then-set unlock under the faithful condition: the
   scenario's own unlocks are the buggy ones ([wait]'s release inside
   its park registration stays faithful). *)
module Bad_unlock_cond : CONDVAR = struct
  type mutex = Bsy.Mutex.t
  type t = Sy.Condition.t

  let mcreate = Bsy.Mutex.create
  let lock = Bsy.Mutex.lock
  let unlock = Bsy.Mutex.unlock
  let create = Sy.Condition.create
  let wait = Sy.Condition.wait
  let signal = Sy.Condition.signal
end

(* The textbook mailbox: consumer waits for the flag under the mutex,
   producer sets it and signals.  The faithful wait publishes the
   waiter before unlocking, so the signal can never fall into a gap;
   the seeded unlock-first wait loses it and the consumer parks
   forever.  With [signal_after_unlock] the producer unlocks before it
   signals, the order lib/workload's [ping_pong] mailboxes use: the
   signal then races the consumer's re-check and park without the
   lock. *)
let condition_mailbox ?(signal_after_unlock = false) (module C : CONDVAR) ()
    =
  let m = C.mcreate () in
  let c = C.create () in
  let full = Atomic'.make false in
  ( [
      (fun () ->
        C.lock m;
        while not (Atomic'.get full) do
          C.wait c m
        done;
        C.unlock m);
      (fun () ->
        C.lock m;
        Atomic'.set full true;
        if signal_after_unlock then begin
          C.unlock m;
          C.signal c
        end
        else begin
          C.signal c;
          C.unlock m
        end);
    ],
    fun () -> if not (Atomic'.peek full) then failwith "mailbox still empty" )

(* A waiter nobody signals must be reported as a deadlock, not hang the
   checker. *)
let forgotten_signal () =
  let m = Sy.Mutex.create () and c = Sy.Condition.create () in
  ( [
      (fun () ->
        Sy.Mutex.lock m;
        Sy.Condition.wait c m;
        Sy.Mutex.unlock m);
      (fun () -> ());
    ],
    fun () -> () )

module type SCOPE = sig
  type t

  val create : unit -> t
  val enter : t -> unit
  val leave : t -> unit
  val await : t -> unit
  val fail : t -> exn -> unit
  val failure : t -> exn option
  val is_cancelled : t -> bool
  val live : t -> int
end

let scope : (module SCOPE) = (module Sco)
let buggy_scope : (module SCOPE) = (module Bsco)

(* Two children exiting while the parent races into [await]: the
   1 -> 0 crossing of the live count must happen exactly once, whoever
   gets there last.  The seeded get-then-set [leave] lets the two
   children both read 2 and both store 1 — the count never reaches 0
   and the parent sleeps forever. *)
let scope_exit_race (module S : SCOPE) () =
  let t = S.create () in
  S.enter t;
  S.enter t;
  ( [ (fun () -> S.leave t); (fun () -> S.leave t); (fun () -> S.await t) ],
    fun () ->
      if S.live t <> 0 then
        failwith (Printf.sprintf "live = %d after everyone left" (S.live t)) )

(* Racing failures: both children fail, both exit; exactly one
   exception is recorded (first CAS wins), the scope is cancelled, and
   the parent still unblocks. *)
let scope_fail_race (module S : SCOPE) () =
  let t = S.create () in
  S.enter t;
  S.enter t;
  let child msg () =
    S.fail t (Failure msg);
    S.leave t
  in
  ( [ child "a"; child "b"; (fun () -> S.await t) ],
    fun () ->
      (match S.failure t with
      | Some (Failure msg) when msg = "a" || msg = "b" -> ()
      | Some _ -> failwith "wrong failure recorded"
      | None -> failwith "no failure recorded");
      if not (S.is_cancelled t) then failwith "failure did not cancel" )

(* ---------- proc: the fd table, its refcount and wait cells ---------- *)

module F = Check.Fd_core

(* The refcount walks a lookup runs without the table lock, as a
   signature so the same scenarios drive the faithful Fd_core and the
   seeded get-then-set twin. *)
module type RC = sig
  type 'a res

  val resource : destroy:('a -> unit) -> 'a -> 'a res
  val refs : 'a res -> int
  val retain : 'a res -> bool
  val release : 'a res -> unit
end

let good_rc : (module RC) = (module Check.Fd_core)
let bad_rc : (module RC) = (module Check.Buggy_fd)

let destroyed_exactly_once destroyed refs =
  if destroyed <> 1 then
    failwith (Printf.sprintf "fd-refcount: destroyed %d times" destroyed);
  if refs <> 0 then failwith (Printf.sprintf "fd-refcount: %d refs left" refs)

(* Two sharers drop their references at once (rc = 2): exactly one
   release must observe the 1 -> 0 crossing and run destroy.  The
   seeded get-then-set release lets both read 2 and both store 1 -- the
   host fd leaks (destroy count 0, a dangling ref). *)
let rc_two_releases (module R : RC) () =
  let destroyed = ref 0 in
  let r = R.resource ~destroy:(fun _ -> incr destroyed) 7 in
  assert (R.retain r);
  ( [ (fun () -> R.release r); (fun () -> R.release r) ],
    fun () -> destroyed_exactly_once !destroyed (R.refs r) )

(* A lookup's retain-then-release races the last release: the faithful
   retain refuses to resurrect a dead handle (rc 0), so the lookup
   either pins the live handle or backs off.  The seeded twin's
   unguarded retain resurrects the destroyed handle, and the lookup's
   release destroys the host fd a second time (by then possibly someone
   else's). *)
let rc_retain_vs_last_release (module R : RC) () =
  let destroyed = ref 0 in
  let r = R.resource ~destroy:(fun _ -> incr destroyed) 7 in
  ( [ (fun () -> if R.retain r then R.release r); (fun () -> R.release r) ],
    fun () -> destroyed_exactly_once !destroyed (R.refs r) )

(* Two ULPs sharing one host fd (rc = 2 via retain) both close their
   slot: exactly one release must observe the 1 -> 0 crossing and run
   destroy. *)
let fd_shared_close () =
  let destroyed = ref 0 in
  let t = F.create ~capacity:2 in
  let r = F.resource ~destroy:(fun _ -> incr destroyed) 7 in
  (match F.alloc t r with Some 0 -> () | _ -> assert false);
  assert (F.retain r);
  (match F.alloc t r with Some 1 -> () | _ -> assert false);
  ( [ (fun () -> ignore (F.close t 0)); (fun () -> ignore (F.close t 1)) ],
    fun () -> destroyed_exactly_once !destroyed (F.refs r) )

(* dup racing the last close: both take the table lock, so the dup
   either copies the live slot (and its close_all drops the copy) or
   finds it closed and reports EBADF. *)
let fd_dup_vs_close () =
  let destroyed = ref 0 in
  let t = F.create ~capacity:2 in
  let r = F.resource ~destroy:(fun _ -> incr destroyed) 7 in
  (match F.alloc t r with Some 0 -> () | _ -> assert false);
  ( [ (fun () -> ignore (F.close t 0)); (fun () -> ignore (F.dup t 0)) ],
    fun () ->
      ignore (F.close_all t);
      destroyed_exactly_once !destroyed (F.refs r) )

(* A lookup ([get], [retain], use, [release]: Proc.Io's per-syscall
   path, which takes no lock) races a close of the same slot.  With no
   re-check of the slot after [retain], the lookup either pins the live
   handle -- the close's destroy then waits for its release -- or finds
   the slot empty or the count at zero and reports EBADF. *)
let fd_lookup_vs_close () =
  let destroyed = ref 0 in
  let t = F.create ~capacity:2 in
  let r = F.resource ~destroy:(fun _ -> incr destroyed) 7 in
  (match F.alloc t r with Some 0 -> () | _ -> assert false);
  ( [
      (fun () ->
        match F.get t 0 with
        | Some r' -> if F.retain r' then F.release r'
        | None -> ());
      (fun () -> ignore (F.close t 0));
    ],
    fun () -> destroyed_exactly_once !destroyed (F.refs r) )

(* POSIX dup2 onto an open slot races a close of the same slot: the
   displaced occupant must be released exactly once, whichever of the
   two takes the slot first. *)
let fd_dup2_vs_close () =
  let da = ref 0 and db = ref 0 in
  let t = F.create ~capacity:2 in
  let a = F.resource ~destroy:(fun _ -> incr da) 1 in
  let b = F.resource ~destroy:(fun _ -> incr db) 2 in
  (match F.alloc t a with Some 0 -> () | _ -> assert false);
  (match F.alloc t b with Some 1 -> () | _ -> assert false);
  ( [
      (fun () -> ignore (F.dup2 t ~src:0 ~dst:1));
      (fun () -> ignore (F.close t 1));
    ],
    fun () ->
      ignore (F.close_all t);
      if !db <> 1 then
        failwith (Printf.sprintf "fd-refcount: dst destroyed %d times" !db);
      if !da <> 1 then
        failwith (Printf.sprintf "fd-refcount: src destroyed %d times" !da);
      if F.refs a <> 0 || F.refs b <> 0 then failwith "fd-refcount: refs left" )

(* Two concurrent allocations in an empty table must hand out exactly
   slots 0 and 1 (POSIX's lowest-free rule). *)
let fd_alloc_race () =
  let t = F.create ~capacity:4 in
  let mk () = F.resource ~destroy:(fun _ -> ()) 0 in
  let s0 = ref (-1) and s1 = ref (-1) in
  ( [
      (fun () -> s0 := (match F.alloc t (mk ()) with Some i -> i | None -> -1));
      (fun () -> s1 := (match F.alloc t (mk ()) with Some i -> i | None -> -1));
    ],
    fun () ->
      if not (min !s0 !s1 = 0 && max !s0 !s1 = 1) then
        failwith (Printf.sprintf "fd-slots: got %d and %d" !s0 !s1) )

(* Slots 0-2 are full; one thread closes 0 and then 1 while another
   allocates.  Lowest-free is linearizable only if the alloc returns 0
   (after the first close) or 3 (before it).  A scan that claims slots
   one by one without the lock can pass slot 0 while it is still full,
   find slot 1 freed behind it and return 1 -- a slot no point in time
   makes the lowest free one. *)
let fd_alloc_vs_ordered_closes () =
  let t = F.create ~capacity:4 in
  let mk () = F.resource ~destroy:(fun _ -> ()) 0 in
  for i = 0 to 2 do
    match F.alloc t (mk ()) with Some j when j = i -> () | _ -> assert false
  done;
  let got = ref (-1) in
  ( [
      (fun () ->
        ignore (F.close t 0);
        ignore (F.close t 1));
      (fun () -> got := Option.value (F.alloc t (mk ())) ~default:(-1));
    ],
    fun () ->
      if !got <> 0 && !got <> 3 then
        failwith (Printf.sprintf "fd-slots: alloc got %d, not 0 or 3" !got) )

(* ---------- fd-table growth ---------- *)

(* A fresh table grows on demand from 8 slots, so each growth scenario
   fills those 8 before its threads start.  Every resource carries its
   own destroy counter; the post-condition closes what is left and
   demands one destroy and zero references per resource. *)
let fd_initial_slots = F.initial_slots

module Fd_growth = struct
  let full_table () =
    let t = F.create ~capacity:(2 * fd_initial_slots) in
    let rs =
      Array.init fd_initial_slots (fun i ->
          let d = ref 0 in
          let r = F.resource ~destroy:(fun _ -> incr d) i in
          (match F.alloc t r with Some j when j = i -> () | _ -> assert false);
          (r, d))
    in
    (t, rs)

  let fresh () =
    let d = ref 0 in
    (F.resource ~destroy:(fun _ -> incr d) 99, d)

  let destroyed_once t rs =
    ignore (F.close_all t);
    Array.iteri
      (fun i (r, d) ->
        if !d <> 1 then
          failwith
            (Printf.sprintf "fd-refcount: resource %d destroyed %d times" i !d);
        if F.refs r <> 0 then
          failwith
            (Printf.sprintf "fd-refcount: resource %d has %d refs left" i
               (F.refs r)))
      rs

  (* An alloc past the full initial array grows the table while a close
     of slot 0 runs through the array it loaded before the growth.  The
     close must stay closed in the grown array: a grow that copies slot
     contents resurrects slot 0, and the final close_all releases its
     destroyed resource a second time. *)
  let vs_close () =
    let t, rs = full_table () in
    let x, dx = fresh () in
    let got = ref (-1) in
    ( [
        (fun () -> got := Option.value (F.alloc t x) ~default:(-1));
        (fun () -> ignore (F.close t 0));
      ],
      fun () ->
        if !got <> 0 && !got <> fd_initial_slots then
          failwith (Printf.sprintf "fd-slots: alloc got %d" !got);
        destroyed_once t (Array.append rs [| (x, dx) |]) )

  (* A dup2 onto a slot beyond the initial array grows the table while
     an alloc claims the one free slot below it through the old array.
     The claim must survive the growth: a grow that copies slot contents
     publishes the slot as still free, and the claimed resource is never
     destroyed. *)
  let vs_alloc () =
    let t, rs = full_table () in
    assert (F.close t 3);
    let x, dx = fresh () in
    let got = ref (-1) in
    ( [
        (fun () -> ignore (F.dup2 t ~src:0 ~dst:(fd_initial_slots + 1)));
        (fun () -> got := Option.value (F.alloc t x) ~default:(-1));
      ],
      fun () ->
        if !got <> 3 then
          failwith (Printf.sprintf "fd-slots: alloc got %d, not 3" !got);
        destroyed_once t (Array.append rs [| (x, dx) |]) )

  (* An alloc grows the table while a dup2 displaces the open slot 0
     through the array it loaded before the growth.  The displacement
     must show in the grown array: a grow that copies slot contents
     keeps the displaced (already destroyed) occupant there and drops
     the new one's reference -- one resource released twice, one
     leaked. *)
  let vs_dup2 () =
    let t, rs = full_table () in
    let x, dx = fresh () in
    ( [
        (fun () -> ignore (F.alloc t x));
        (fun () -> ignore (F.dup2 t ~src:1 ~dst:0));
      ],
      fun () -> destroyed_once t (Array.append rs [| (x, dx) |]) )

  (* Two allocs past the full initial array both grow it: one CAS
     publishes, the loser retries against the winner's array, and the
     two claims land in the first two grown slots. *)
  let two_growers () =
    let t, rs = full_table () in
    let (x, dx), (y, dy) = (fresh (), fresh ()) in
    let gx = ref (-1) and gy = ref (-1) in
    ( [
        (fun () -> gx := Option.value (F.alloc t x) ~default:(-1));
        (fun () -> gy := Option.value (F.alloc t y) ~default:(-1));
      ],
      fun () ->
        if min !gx !gy <> fd_initial_slots
           || max !gx !gy <> fd_initial_slots + 1
        then
          failwith (Printf.sprintf "fd-slots: got %d and %d" !gx !gy);
        destroyed_once t (Array.append rs [| (x, dx); (y, dy) |]) )
end

let fd_grow_two_growers = Fd_growth.two_growers
let fd_grow_vs_close = Fd_growth.vs_close
let fd_grow_vs_alloc = Fd_growth.vs_alloc
let fd_grow_vs_dup2 = Fd_growth.vs_dup2

(* ---------- the KC pool: lease on first couple, push back at finish - *)

module Kc_pool = Check.Kc_pool

(* A simulated KC: an executor's FIFO mailbox.  Every mailbox operation
   is one traced step on [kobj], as each real one is one critical
   section under the executor's mutex.  [owner] is the live fiber that
   holds the lease. *)
type sim_kc = {
  kid : int;
  kobj : int;
  mutable jobs : (unit -> unit) list; (* oldest first *)
  mutable closed : bool;
  mutable owner : string option;
}

let kc_step kc note kind f = Sched.atomic_step ~kind ~obj:kc.kobj ~note f

(* The KC thread: run jobs in FIFO order until closed and drained. *)
let rec kc_serve kc =
  Sched.wait_until ~on:kc.kobj (fun () -> kc.jobs <> [] || kc.closed);
  match
    kc_step kc "take" Sched.Exchange (fun () ->
        match kc.jobs with
        | job :: rest ->
            kc.jobs <- rest;
            Some job
        | [] -> None)
  with
  | None -> ()
  | Some job ->
      job ();
      kc_serve kc

(* [Blt_rt.coupled]: queue a section on the fiber's KC and park until
   the section wakes it.  The section checks, before and after its
   syscall, that its own fiber holds the KC's lease. *)
let kc_coupled kc who =
  let check () =
    if kc.owner <> Some who then
      failwith
        (Printf.sprintf "kc-pool: %s's section ran on KC %d, leased to %s"
           who kc.kid
           (Option.value kc.owner ~default:"nobody"))
  in
  Cfiber.suspend_token (fun tok ->
      kc_step kc "submit" Sched.Set (fun () ->
          kc.jobs <-
            kc.jobs
            @ [
                (fun () ->
                  check ();
                  (* the syscall: other threads may run while it is in
                     flight *)
                  kc_step kc "syscall" Sched.Get ignore;
                  check ();
                  ignore (Cfiber.Wake.fire tok));
              ]))

(* An owner exits while two fibers lease.  A exits right after its
   coupled section has woken it, while its KC thread may still be in
   that section's tail.  C and D each lease a KC -- A's recycled one or
   a new one; C also runs one coupled section on it (a section by D
   would only add schedules of the same shape).  Invariants: a KC is
   never leased to two live fibers, a section runs only while its own
   fiber holds the lease, and at quiescence every KC the pool made is
   leased or free, exactly once. *)
let kc_pool_lease_vs_exit () =
  let kcs =
    Array.init 3 (fun kid ->
        { kid; kobj = Sched.fresh_obj (); jobs = []; closed = false; owner = None })
  in
  let made = ref 0 in
  let make () =
    let kc = kcs.(!made) in
    incr made;
    kc
  in
  let pool = Kc_pool.create () in
  let lease who =
    let kc = Kc_pool.lease pool ~create:make in
    (match kc.owner with
    | Some o ->
        failwith
          (Printf.sprintf "kc-pool: KC %d leased to both %s and %s" kc.kid o
             who)
    | None -> ());
    kc.owner <- Some who;
    kc
  in
  let a = lease "A" in
  let finished = Atomic'.make 0 in
  let done_one () =
    if Atomic'.fetch_and_add finished 1 = 2 then
      Array.iter
        (fun kc -> kc_step kc "close" Sched.Set (fun () -> kc.closed <- true))
        kcs
  in
  let couple_then_exit who kc () =
    kc_coupled kc who;
    kc.owner <- None;
    Kc_pool.recycle pool kc;
    done_one ()
  in
  let couple who () =
    kc_coupled (lease who) who;
    done_one ()
  in
  let hold who () =
    ignore (lease who);
    done_one ()
  in
  (* KC threads first: the explorer's default schedule serves each
     section at once, so the leases race at the deep end of the trace,
     where the DFS branches first. *)
  ( Array.to_list (Array.map (fun kc () -> kc_serve kc) kcs)
    @ [ couple_then_exit "A" a; couple "C"; hold "D" ],
    fun () ->
      let rec drain acc =
        match Kc_pool.lease pool ~create:(fun () -> raise Exit) with
        | kc -> drain (kc :: acc)
        | exception Exit -> acc
      in
      let free = drain [] in
      List.iter
        (fun kc ->
          match (kc.owner, List.length (List.filter (( == ) kc) free)) with
          | Some ("C" | "D"), 0 | None, 1 -> ()
          | owner, n ->
              failwith
                (Printf.sprintf "kc-pool: KC %d (owner %s) on the free list %d times"
                   kc.kid
                   (Option.value owner ~default:"none")
                   n))
        (Kc_pool.all pool);
      if List.length free + 2 <> List.length (Kc_pool.all pool) then
        failwith "kc-pool: the free list holds a KC the pool never made" )

(* The pool alone, on plain KC records: no KC threads, no mailboxes,
   since the pool is polymorphic in the KC.  Fiber A leases and then
   recycles, fiber B leases, and the run's exit reads [all].  Small
   enough to explore completely, where [kc_pool_lease_vs_exit] stops at
   its schedule bound.  Invariants: no KC is leased twice, [all] holds
   every KC created exactly once, and the exit's read lists only KCs
   the pool made. *)
type plain_kc = { pid : int; mutable holder : string option }

let kc_pool_lease_recycle () =
  let made = ref [] in
  let create () =
    let kc = { pid = List.length !made; holder = None } in
    made := kc :: !made;
    kc
  in
  let pool = Kc_pool.create () in
  let lease who =
    let kc = Kc_pool.lease pool ~create in
    (match kc.holder with
    | Some o ->
        failwith
          (Printf.sprintf "kc-pool: KC %d leased to both %s and %s" kc.pid o
             who)
    | None -> ());
    kc.holder <- Some who;
    kc
  in
  let seen = ref [] in
  ( [
      (fun () ->
        let kc = lease "A" in
        kc.holder <- None;
        Kc_pool.recycle pool kc);
      (fun () -> ignore (lease "B"));
      (fun () -> seen := Kc_pool.all pool);
    ],
    fun () ->
      let ids kcs = List.sort compare (List.map (fun kc -> kc.pid) kcs) in
      if ids (Kc_pool.all pool) <> ids !made then
        failwith "kc-pool: all does not hold every KC created, once each";
      (* leasing out what is still free must not lease a held KC *)
      let rec drain () =
        match Kc_pool.lease pool ~create:(fun () -> raise Exit) with
        | kc ->
            (match kc.holder with
            | Some o ->
                failwith
                  (Printf.sprintf "kc-pool: free KC %d still leased to %s"
                     kc.pid o)
            | None -> kc.holder <- Some "exit");
            drain ()
        | exception Exit -> ()
      in
      drain ();
      if List.exists (fun kc -> not (List.memq kc !made)) !seen then
        failwith "kc-pool: the exit read a KC the pool never made" )

(* ---------- scenario: the interest table, park vs report ---------- *)

(* Parameterized over the table so the same scenarios drive the
   faithful copy (recompiled from lib/net/interest.ml) and the seeded
   twins in [Check.Buggy_interest]. *)
module type INTEREST = sig
  type t

  val create : register:(int -> was:int -> int -> bool) -> t
  val arm : t -> int -> Check.Interest.watch -> rearm:bool -> unit
  val fire : t -> int -> readable:bool -> writable:bool -> int
  val unwatch : t -> int -> Check.Interest.watch -> unit
  val close : t -> int
  val watched : t -> int
end

(* The kernel's side of one fd under edge-triggered epoll: its one
   registration (bit 1 read, bit 2 write), its readiness, and the edges
   queued for the next epoll_wait.  A readiness rise in a registered
   direction queues an edge; adding or modifying the registration
   queues one for each direction already ready; epoll_wait reports the
   queued edges once.  One object, changed in single steps, so each
   kernel call is one scheduling point.  [left] counts the waiters not
   yet served; only the turn holder's wakes lower it, so it needs no
   step of its own. *)
type kfd = {
  kid : int;
  mutable registered : int;
  mutable ready : int;
  mutable queued : int;
  mutable left : int;
}

let k_make ~ready ~left =
  { kid = Sched.fresh_obj (); registered = 0; ready; queued = 0; left }

let k_step k f =
  Sched.atomic_step ~kind:Sched.Exchange ~obj:k.kid ~note:"kernel" (fun () ->
      f k)

(* epoll_ctl: ADD fails on a registered fd (EEXIST), MOD on an
   unregistered one (ENOENT), and both re-check readiness *)
let k_register k _fd ~was mask =
  k_step k (fun k ->
      if (was = 0) <> (k.registered = 0) then false
      else begin
        k.registered <- mask;
        k.queued <- (if mask = 0 then 0 else k.queued lor (k.ready land mask));
        true
      end)

(* the fd turns ready in [bits]: one edge per registered direction *)
let k_rise k bits =
  k_step k (fun k ->
      k.ready <- k.ready lor bits;
      k.queued <- k.queued lor (bits land k.registered))

(* An earlier wait on the fd registered it for reading and was served:
   the registration stands, its edges spent.  Setup code, run before
   the threads. *)
let k_prime k ~arm ~unwatch =
  let w = { Check.Interest.dir = `R; wake = ignore } in
  arm w;
  unwatch w;
  k.queued <- 0

(* The turn holder.  epoll_wait blocks until an edge is queued, reports
   the queued edges once, all in one step; then the table fires.  It
   returns once every waiter was served. *)
let k_reactor fire k () =
  let rec loop () =
    let ev =
      Sched.guarded_step ~kind:Sched.Exchange ~obj:k.kid ~note:"epoll_wait"
        ~enabled:(fun () -> k.left = 0 || k.queued <> 0)
        (fun () ->
          let ev = k.queued in
          k.queued <- 0;
          ev)
    in
    if ev <> 0 then begin
      ignore (fire ~readable:(ev land 1 <> 0) ~writable:(ev land 2 <> 0));
      loop ()
    end
  in
  loop ()

(* A watch as await_fd arms it.  Its wake serves one waiter and sets a
   traced flag (a second wake is a bug of its own); [k_parked] waits on
   that flag. *)
let k_watch k dir =
  let woke = Atomic'.make false in
  let wake () =
    if Atomic'.exchange woke true then failwith "a watch woken twice";
    k.left <- k.left - 1
  in
  ({ Check.Interest.dir; wake }, woke)

let k_parked woke =
  Sched.wait_until ~on:(Atomic'.id woke) (fun () -> Atomic'.peek woke)

(* A reader and a writer parked after EAGAIN on one socket: nothing to
   read, the send buffer full.  A byte arrives, then the peer drains.
   The read edge wakes the reader, and the writer must stay parked for
   the write edge.  [Drops_entry] forgets the writer with the entry: a
   lost wakeup. *)
let interest_two_directions (module I : INTEREST) () =
  let k = k_make ~ready:0 ~left:2 in
  let it = I.create ~register:(k_register k) in
  let rw, rwoke = k_watch k `R and ww, wwoke = k_watch k `W in
  ( [
      (fun () ->
        I.arm it 0 rw ~rearm:false;
        k_parked rwoke);
      (fun () ->
        I.arm it 0 ww ~rearm:false;
        k_parked wwoke);
      (fun () ->
        k_rise k 1 (* a byte arrives *);
        k_rise k 2 (* the peer drains *));
      k_reactor (I.fire it 0) k;
    ],
    fun () -> if I.watched it <> 0 then failwith "a watch outlived its wait" )

(* One waiter parking right after EAGAIN on a registered fd while the
   fd turns readable: the edge may be reported before the watch is
   published, and must then wait as the pending bit.  [Two_sections]
   checks the bit and publishes in two critical sections, so an edge
   reported between them is lost. *)
let interest_arm_vs_fire (module I : INTEREST) () =
  let k = k_make ~ready:0 ~left:1 in
  let it = I.create ~register:(k_register k) in
  k_prime k ~arm:(I.arm it 0 ~rearm:false) ~unwatch:(I.unwatch it 0);
  let rw, rwoke = k_watch k `R in
  ( [
      (fun () ->
        I.arm it 0 rw ~rearm:false;
        k_parked rwoke);
      (fun () -> k_rise k 1);
      k_reactor (I.fire it 0) k;
    ],
    fun () -> if I.watched it <> 0 then failwith "a watch outlived its wait" )

(* await_fd with a deadline on a readable fd: readiness and the timer
   race to claim one verdict.  On a timeout the waiter unwatches, and a
   deadline-free re-await (a bare wait: its edge may have gone to the
   dead watch) must still be served. *)
let interest_timeout_unwatch (module I : INTEREST) () =
  let k = k_make ~ready:1 ~left:1 in
  let it = I.create ~register:(k_register k) in
  let verdict = Atomic'.make 0 (* 0 none / 1 ready / 2 timeout *) in
  let claim v = Atomic'.compare_and_set verdict 0 v in
  let w =
    {
      Check.Interest.dir = `R;
      wake = (fun () -> if claim 1 then k.left <- k.left - 1);
    }
  in
  ( [
      (fun () ->
        I.arm it 0 w ~rearm:true;
        Sched.wait_until ~on:(Atomic'.id verdict) (fun () ->
            Atomic'.peek verdict <> 0);
        if Atomic'.get verdict = 2 then begin
          I.unwatch it 0 w;
          let again, woke = k_watch k `R in
          I.arm it 0 again ~rearm:true;
          k_parked woke
        end);
      (fun () -> ignore (claim 2) (* the deadline *));
      k_reactor (I.fire it 0) k;
    ],
    fun () -> if I.watched it <> 0 then failwith "a watch outlived its wait" )

(* A waiter arming while the reactor shuts down: either the shutdown
   sweep posts the watch or the arm finds the table closed and posts
   its own cell.  Nothing may stay parked on a dead reactor. *)
let interest_arm_vs_close (module I : INTEREST) () =
  let it = I.create ~register:(fun _ ~was:_ _ -> true) in
  let woke = Atomic'.make 0 in
  ( [
      (fun () ->
        I.arm it 0
          { Check.Interest.dir = `R; wake = (fun () -> Atomic'.incr woke) }
          ~rearm:false;
        Sched.wait_until ~on:(Atomic'.id woke) (fun () -> Atomic'.peek woke > 0));
      (fun () -> ignore (I.close it));
    ],
    fun () ->
      if Atomic'.peek woke <> 1 then failwith "waiter woken more than once";
      if I.watched it <> 0 then failwith "a watch outlived the reactor" )

(* The accept loop's shape: one edge announced two queued connections,
   the loop accepted one and waits again with no EAGAIN before the wait.
   The fd is still ready and its edge is spent, so only the bare wait's
   re-arm reports it.  [No_rearm] parks for an edge that never comes. *)
let interest_bare_wait_rearms (module I : INTEREST) () =
  let k = k_make ~ready:0 ~left:1 in
  let it = I.create ~register:(k_register k) in
  k_prime k ~arm:(I.arm it 0 ~rearm:false) ~unwatch:(I.unwatch it 0);
  k.ready <- 1 (* the second connection, its edge spent *);
  let rw, rwoke = k_watch k `R in
  ( [
      (fun () ->
        I.arm it 0 rw ~rearm:true;
        k_parked rwoke);
      k_reactor (I.fire it 0) k;
    ],
    fun () -> if I.watched it <> 0 then failwith "a watch outlived its wait" )

(* ---------- scenario: a worker waiting in the poller ---------- *)

(* Parameterized over the handshake so the same scenarios drive the
   faithful copy (recompiled from lib/fiber_rt/poll_park.ml) and the
   seeded twins in [Check.Buggy_poll_park]. *)
module type POLL_PARK = sig
  type turn

  val post : Check.Poll_park.slot -> poke:(unit -> unit) -> unit
  val take_token : Check.Poll_park.slot -> bool
  val poll : Check.Poll_park.slot -> (block:(unit -> bool) -> unit) -> unit
  val turn : unit -> turn
  val try_hold : turn -> bool
  val leave : turn -> pending:(unit -> bool) -> hand_off:(unit -> unit) -> unit
end

(* The poller of one reactor: a poke byte in the self-pipe and one
   watched fd's readiness, one object changed in single steps. *)
type kpoll = { pid : int; mutable pipe : bool; mutable ready : bool }

let kp_make () = { pid = Sched.fresh_obj (); pipe = false; ready = false }

let kp_step k f =
  Sched.atomic_step ~kind:Sched.Exchange ~obj:k.pid ~note:"kernel" (fun () ->
      f k)

let kp_poke k () = kp_step k (fun k -> k.pipe <- true)

(* The reported readiness; an edge is reported once. *)
let kp_report k =
  let r = k.ready in
  k.ready <- false;
  r

(* One reactor turn: drain the pipe, then wait until a poke or the fd
   when [block ()] holds (else probe once), and dispatch a report. *)
let kp_turn k ~on_ready ~block =
  kp_step k (fun k -> k.pipe <- false);
  let reported =
    if block () then
      Sched.guarded_step ~kind:Sched.Exchange ~obj:k.pid ~note:"epoll_wait"
        ~enabled:(fun () -> k.pipe || k.ready)
        (fun () -> kp_report k)
    else kp_step k kp_report
  in
  if reported then on_ready ()

(* A worker's sleep on its parker: until its token is posted, then take it. *)
let kp_consume (module P : POLL_PARK) (s : Check.Poll_park.slot) =
  Sched.wait_until ~on:(Atomic'.id s.Check.Poll_park.token) (fun () ->
      Atomic'.peek s.Check.Poll_park.token);
  if not (P.take_token s) then failwith "an owed token vanished"

(* A worker holding the turn waits in the poller while a waker owes it
   a wake.  Either the parker's last check sees the token, or the
   waker sees the flag and pokes.  [Late_flag] publishes the flag after
   that check: the poke is skipped and the parker blocks for good. *)
let park_flag_vs_post (module P : POLL_PARK) () =
  let k = kp_make () in
  let s = Check.Poll_park.slot () in
  ( [
      (fun () ->
        P.poll s (kp_turn k ~on_ready:ignore);
        if not (P.take_token s) then
          failwith "left the poller with no wake owed");
      (fun () -> P.post s ~poke:(kp_poke k));
    ],
    fun () -> () )

(* Worker 0 holds the turn while a watch stays armed; worker 1 parks
   and finds the turn held, so it sleeps on its parker.  Worker 0's
   [leave] frees the turn, then wakes a parked peer; worker 1 either
   takes the free turn itself or is woken to take it.  A failed
   [try_hold] comes after worker 1's push on the idle stack, and the
   release before the holder's pop, so one of them always sees the
   other.  [No_hand_off] leaves worker 1 asleep with nobody polling. *)
let park_hand_off (module P : POLL_PARK) () =
  let module Idle = Check.Idle_waker in
  let idle = Idle.create () in
  let slot = Check.Poll_park.slot () in
  let turn = P.turn () in
  ignore (P.try_hold turn);
  ( [
      (fun () ->
        P.leave turn
          ~pending:(fun () -> true)
          ~hand_off:(fun () ->
            match Idle.pop idle with
            | Some _ -> P.post slot ~poke:ignore
            | None -> ()));
      (fun () ->
        Idle.push idle 1;
        if P.try_hold turn then begin
          if not (Idle.take idle 1) then kp_consume (module P) slot
        end
        else begin
          kp_consume (module P) slot;
          if not (P.try_hold turn) then failwith "woken with the turn held"
        end);
    ],
    fun () -> () )

(* ---------- scenario: the KC mailbox and its parker ---------- *)

(* Parameterized over the mailbox so the same scenarios drive the
   faithful copy (recompiled from lib/fiber_rt/kc_mailbox.ml over the
   modelled parker, Check.Parker) and the seeded twins in
   [Check.Buggy_kc_mailbox]. *)
module type KC_MAILBOX = sig
  type 'job t

  val create : unit -> 'job t
  val submit : 'job t -> 'job -> bool
  val shutdown : 'job t -> unit
  val serve : 'job t -> run:('job -> unit) -> unit
end

(* A fiber submits while the KC goes to sleep, then waits for its job
   before shutting the KC down.  The submit either finds the queue
   taken first (the KC re-checks under the lock) or the flag set (it
   unparks).  [Late_sleeping] sets the flag after the unlock: the submit
   lands in between, skips the unpark, and the KC sleeps on its job. *)
let mailbox_submit_vs_sleep (module M : KC_MAILBOX) () =
  let mb = M.create () in
  let ran = Atomic'.make 0 in
  ( [
      (fun () -> M.serve mb ~run:(fun job -> job ()));
      (fun () ->
        if not (M.submit mb (fun () -> Atomic'.incr ran)) then
          failwith "submit refused before shutdown";
        Sched.wait_until ~on:(Atomic'.id ran) (fun () -> Atomic'.peek ran = 1);
        M.shutdown mb);
    ],
    fun () -> if Atomic'.peek ran <> 1 then failwith "job ran more than once" )

(* Shutdown races the KC going to sleep: the KC must return either
   way, and a submit after the shutdown is refused. *)
let mailbox_shutdown_vs_sleep (module M : KC_MAILBOX) () =
  let mb = M.create () in
  ( [
      (fun () -> M.serve mb ~run:(fun job -> job ()));
      (fun () ->
        M.shutdown mb;
        if M.submit mb ignore then failwith "submit accepted after shutdown");
    ],
    fun () -> () )

(* One coupled section end to end.  The worker submits inside
   [deferring], so it owes the KC its wake and issues it at its own
   park; the section sets the result and wakes the worker inside
   [deferring], so the KC owes the worker its wake across its park.
   [Drops_owed] forgets that wake at the park: the worker sleeps on a
   finished section. *)
let mailbox_owed_across_park (module M : KC_MAILBOX) () =
  let module P = Check.Parker in
  let mb = M.create () in
  let worker = P.create () in
  let result = Atomic'.make 0 in
  let section () =
    Atomic'.set result 42;
    P.deferring (fun () -> P.unpark worker)
  in
  ( [
      (fun () -> M.serve mb ~run:(fun job -> job ()));
      (fun () ->
        if not (P.deferring (fun () -> M.submit mb section)) then
          failwith "submit refused before shutdown";
        while Atomic'.get result = 0 do
          P.park worker
        done;
        M.shutdown mb);
    ],
    fun () -> if Atomic'.peek result <> 42 then failwith "section lost" )

(* ---------- the model-checked assertions ---------- *)

let adq : (module DEQUE) = (module Adq)
let buggy_adq : (module DEQUE) = (module Buggy)
let compl : (module COMPLETION) = (module Compl)
let buggy_compl : (module COMPLETION) = (module Buggy_compl)
let rdy : (module READINESS) = (module Check.Readiness)
let buggy_rdy : (module READINESS) = (module Check.Buggy_reactor)
let idle : (module IDLE) = (module Check.Idle_waker)
let buggy_idle : (module IDLE) = (module Check.Buggy_idle_waker)
let interest : (module INTEREST) = (module Check.Interest)
let drops_entry : (module INTEREST) = (module Check.Buggy_interest.Drops_entry)
let two_sections : (module INTEREST) =
  (module Check.Buggy_interest.Two_sections)

let no_rearm : (module INTEREST) = (module Check.Buggy_interest.No_rearm)

let close_unlocked : (module INTEREST) =
  (module Check.Buggy_interest.Close_unlocked)
let poll_park : (module POLL_PARK) = (module Check.Poll_park)
let late_flag : (module POLL_PARK) = (module Check.Buggy_poll_park.Late_flag)
let no_hand_off : (module POLL_PARK) = (module Check.Buggy_poll_park.No_hand_off)
let kc_mailbox : (module KC_MAILBOX) = (module Check.Kc_mailbox)

let late_sleeping : (module KC_MAILBOX) =
  (module Check.Buggy_kc_mailbox.Late_sleeping)

let drops_owed : (module KC_MAILBOX) = (module Check.Buggy_kc_mailbox.Drops_owed)

let test_pop_steal_race () =
  let stats = expect_pass "pop-vs-steal" (Sched.check (pop_steal_race adq)) in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_deque_conservation () =
  let stats =
    expect_pass "deque-conservation"
      (Sched.check ~max_schedules:4_000 deque_conservation)
  in
  Alcotest.(check bool) "explored plenty" true (stats.Sched.schedules >= 1_000)

let test_deque_growth () =
  ignore (expect_pass "deque-growth" (Sched.check ~max_schedules:4_000 deque_growth))

let test_steal_batch_conservation () =
  ignore
    (expect_pass "steal-batch-vs-pop"
       (Sched.check ~max_schedules:4_000 (steal_batch_vs_pop adq)))

let test_completion_race () =
  let stats =
    expect_pass "completion-race" (Sched.check (completion_race compl))
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_readiness_register_vs_post () =
  let stats =
    expect_pass "readiness-register-vs-post"
      (Sched.check (readiness_register_vs_post rdy))
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_readiness_two_posters () =
  let stats =
    expect_pass "readiness-two-posters"
      (Sched.check ~max_schedules:4_000 (readiness_two_posters rdy))
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_readiness_timeout_vs_ready () =
  ignore
    (expect_pass "readiness-timeout-vs-ready"
       (Sched.check ~max_schedules:4_000 (readiness_timeout_vs_ready rdy)))

let test_buggy_reactor_caught () =
  let f, stats =
    expect_bug "get-then-set post"
      (Sched.check (readiness_register_vs_post buggy_rdy))
  in
  Printf.printf "reactor lost wake-up caught after %d schedules: %s\n%!"
    stats.Sched.schedules f.Sched.f_reason;
  print_string (Sched.failure_to_string f);
  (* the overwritten registration strands the fiber's park: a deadlock *)
  Alcotest.(check bool)
    "reported as deadlock" true
    (contains ~sub:"Deadlock" f.Sched.f_reason);
  (* the printed schedule replays to the same failure... *)
  (match
     Sched.replay ~schedule:f.Sched.f_schedule
       (readiness_register_vs_post buggy_rdy)
   with
  | Error f' ->
      Alcotest.(check string)
        "replay reproduces the same failure" f.Sched.f_reason f'.Sched.f_reason
  | Ok _ -> Alcotest.fail "replay of the failing schedule passed");
  (* ...and the faithful cell survives the exact same schedule *)
  match
    Sched.replay ~schedule:f.Sched.f_schedule (readiness_register_vs_post rdy)
  with
  | Ok _ -> ()
  | Error f' ->
      Sched.print_failure f';
      Alcotest.fail "faithful Readiness failed the buggy post's schedule"

let test_buggy_reactor_double_wake () =
  let f, stats =
    expect_bug "two posters double-wake"
      (Sched.check ~max_schedules:4_000 (readiness_two_posters buggy_rdy))
  in
  Printf.printf "reactor double-wake caught after %d schedules: %s\n%!"
    stats.Sched.schedules f.Sched.f_reason;
  match
    Sched.replay ~schedule:f.Sched.f_schedule (readiness_two_posters rdy)
  with
  | Ok _ -> ()
  | Error f' ->
      Sched.print_failure f';
      Alcotest.fail "faithful Readiness failed the double-wake schedule"

let test_idle_take_vs_pop () =
  let stats =
    expect_pass "idle-take-vs-pop" (Sched.check (idle_take_vs_pop idle))
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_idle_two_flushes () =
  let stats =
    expect_pass "idle-two-flushes" (Sched.check (idle_two_flushes idle))
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_idle_wake_vs_park () =
  let stats =
    expect_pass "idle-wake-vs-park" (Sched.check (idle_wake_vs_park idle))
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_readiness_rebind () =
  ignore
    (expect_pass "readiness-rebind"
       (Sched.check ~max_schedules:8_000 (readiness_rebind rdy)))

let test_buggy_idle_caught () =
  (* the targeted notify racing a pop: the stale-read store resurrects
     the popped worker *)
  let f, stats =
    expect_bug "get-then-set take"
      (Sched.check (idle_take_vs_pop buggy_idle))
  in
  Printf.printf "idle-flush lost removal caught after %d schedules: %s\n%!"
    stats.Sched.schedules f.Sched.f_reason;
  print_string (Sched.failure_to_string f);
  Alcotest.(check bool)
    "conservation violated" true
    (contains ~sub:"not conserved" f.Sched.f_reason);
  (* the printed schedule replays to the same failure... *)
  (match
     Sched.replay ~schedule:f.Sched.f_schedule (idle_take_vs_pop buggy_idle)
   with
  | Error f' ->
      Alcotest.(check string)
        "replay reproduces the same failure" f.Sched.f_reason f'.Sched.f_reason
  | Ok _ -> Alcotest.fail "replay of the failing schedule passed");
  (* ...and the faithful stack survives the exact same schedule *)
  match Sched.replay ~schedule:f.Sched.f_schedule (idle_take_vs_pop idle) with
  | Ok _ -> ()
  | Error f' ->
      Sched.print_failure f';
      Alcotest.fail "faithful Idle_waker failed the buggy take's schedule"

let test_buggy_idle_double_token () =
  let f, stats =
    expect_bug "two flushes double-take"
      (Sched.check (idle_two_flushes buggy_idle))
  in
  Printf.printf "double wake token caught after %d schedules: %s\n%!"
    stats.Sched.schedules f.Sched.f_reason;
  match Sched.replay ~schedule:f.Sched.f_schedule (idle_two_flushes idle) with
  | Ok _ -> ()
  | Error f' ->
      Sched.print_failure f';
      Alcotest.fail "faithful Idle_waker failed the double-take schedule"

let test_buggy_idle_wake_vs_park () =
  let f, stats =
    expect_bug "park-cancel vs waker"
      (Sched.check (idle_wake_vs_park buggy_idle))
  in
  Printf.printf "park-cancel double-claim caught after %d schedules: %s\n%!"
    stats.Sched.schedules f.Sched.f_reason;
  match Sched.replay ~schedule:f.Sched.f_schedule (idle_wake_vs_park idle) with
  | Ok _ -> ()
  | Error f' ->
      Sched.print_failure f';
      Alcotest.fail "faithful Idle_waker failed the park-cancel schedule"

let test_buggy_rebind_caught () =
  let f, stats =
    expect_bug "rebind lost registration"
      (Sched.check ~max_schedules:8_000
         (readiness_rebind buggy_rdy))
  in
  Printf.printf "rebind lost wake-up caught after %d schedules: %s\n%!"
    stats.Sched.schedules f.Sched.f_reason;
  match
    Sched.replay ~schedule:f.Sched.f_schedule
      (readiness_rebind rdy)
  with
  | Ok _ -> ()
  | Error f' ->
      Sched.print_failure f';
      Alcotest.fail "faithful Readiness failed the rebind schedule"

let test_mpsc () =
  ignore
    (expect_pass "mpsc-enqueue-drain"
       (Sched.check ~max_schedules:4_000 mpsc_enqueue_drain))

let test_deadlock_detected () =
  let f, _ = expect_bug "forgotten signal" (Sched.check forgotten_signal) in
  Alcotest.(check bool)
    "reported as deadlock" true
    (contains ~sub:"Deadlock" f.Sched.f_reason)

let test_couple_vs_steal () =
  let stats =
    expect_pass "couple-vs-steal"
      (Sched.check ~max_schedules:4_000 (couple_vs_steal ~buggy:false))
  in
  Printf.printf "couple-vs-steal: %s\n%!"
    (Format.asprintf "%a" Sched.pp_stats stats);
  Alcotest.(check bool) "explored some" true (stats.Sched.schedules >= 1)

let test_couple_vs_steal_buggy () =
  let f, _ =
    expect_bug "couple-on-thief"
      (Sched.check ~max_schedules:4_000 (couple_vs_steal ~buggy:true))
  in
  Alcotest.(check bool)
    "Enforce fired" true
    (contains ~sub:"Violation" f.Sched.f_reason)

(* ---------- sync/scope: faithful copies pass ---------- *)

let good_mutex : (module MUTEX) = (module Good_mutex)
let bad_mutex : (module MUTEX) = (module Bad_mutex)
let good_cond : (module CONDVAR) = (module Good_cond)
let bad_cond : (module CONDVAR) = (module Bad_cond)
let bad_unlock_cond : (module CONDVAR) = (module Bad_unlock_cond)
let mailbox_after_unlock = condition_mailbox ~signal_after_unlock:true

let test_mutex_exclusion () =
  ignore
    (expect_pass "mutex-exclusion (park)"
       (Sched.check ~max_schedules:8_000 (mutex_exclusion good_mutex)))

let test_condition_mailbox () =
  ignore
    (expect_pass "condition-mailbox"
       (Sched.check ~max_schedules:8_000 (condition_mailbox good_cond)))

let test_mailbox_after_unlock () =
  let stats =
    expect_pass "mailbox-signal-after-unlock"
      (Sched.check (mailbox_after_unlock good_cond))
  in
  Printf.printf "mailbox-signal-after-unlock: %s\n%!"
    (Format.asprintf "%a" Sched.pp_stats stats);
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_scope_exit_race () =
  let stats =
    expect_pass "scope-exit-race" (Sched.check (scope_exit_race scope))
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_scope_fail_race () =
  ignore
    (expect_pass "scope-fail-race"
       (Sched.check ~max_schedules:8_000 (scope_fail_race scope)))

let test_fd_shared_close () =
  let stats =
    expect_pass "fd-shared-close" (Sched.check fd_shared_close)
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_fd_dup_vs_close () =
  let stats =
    expect_pass "fd-dup-vs-close"
      (Sched.check ~max_schedules:8_000 fd_dup_vs_close)
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_fd_dup2_vs_close () =
  ignore
    (expect_pass "fd-dup2-vs-close"
       (Sched.check ~max_schedules:8_000 fd_dup2_vs_close))

let test_fd_alloc_race () =
  let stats =
    expect_pass "fd-alloc-race" (Sched.check fd_alloc_race)
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_fd_alloc_vs_ordered_closes () =
  let stats =
    expect_pass "fd-alloc-vs-ordered-closes"
      (Sched.check fd_alloc_vs_ordered_closes)
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_fd_lookup_vs_close () =
  let stats =
    expect_pass "fd-lookup-vs-close" (Sched.check fd_lookup_vs_close)
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_fd_grow_vs_close () =
  let stats =
    expect_pass "fd-grow-vs-close" (Sched.check fd_grow_vs_close)
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_fd_grow_vs_alloc () =
  let stats =
    expect_pass "fd-grow-vs-alloc" (Sched.check fd_grow_vs_alloc)
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_fd_grow_vs_dup2 () =
  let stats =
    expect_pass "fd-grow-vs-dup2" (Sched.check fd_grow_vs_dup2)
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_fd_grow_two_growers () =
  let stats =
    expect_pass "fd-grow-two-growers"
      (Sched.check fd_grow_two_growers)
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_joiner_vs_finish () =
  let stats =
    expect_pass "joiner-vs-finish"
      (Sched.check (joiner_vs_finish compl))
  in
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_two_joiners () =
  ignore
    (expect_pass "two-joiners"
       (Sched.check ~max_schedules:8_000 (two_joiners compl)))

(* ---------- sync/scope: seeded twins caught, faithful replays ------- *)

(* Every twin must (a) be reported as a bug, (b) replay its failing
   schedule to the same failure, and (c) leave the faithful copy clean
   under the EXACT same schedule — the twin test's whole point. *)
let twin_caught name ~buggy ~faithful ~expect_reason () =
  let f, stats = expect_bug name (Sched.check ~max_schedules:20_000 buggy) in
  Printf.printf "%s caught after %d schedules: %s\n%!" name
    stats.Sched.schedules f.Sched.f_reason;
  Alcotest.(check bool)
    (Printf.sprintf "reason mentions %S" expect_reason)
    true
    (contains ~sub:expect_reason f.Sched.f_reason);
  (match Sched.replay ~schedule:f.Sched.f_schedule buggy with
  | Error f' ->
      Alcotest.(check string)
        "replay reproduces the same failure" f.Sched.f_reason f'.Sched.f_reason
  | Ok _ -> Alcotest.fail "replay of the failing schedule passed");
  match Sched.replay ~schedule:f.Sched.f_schedule faithful with
  | Ok _ -> ()
  | Error f' ->
      Sched.print_failure f';
      Alcotest.failf "faithful copy failed the %s schedule" name

(* The get-then-set unlock wipes a parking locker: lost wakeup ->
   deadlock. *)
let test_buggy_mutex_caught =
  twin_caught "buggy-mutex-unlock"
    ~buggy:(mutex_exclusion ~threads:2 bad_mutex)
    ~faithful:(mutex_exclusion ~threads:2 good_mutex)
    ~expect_reason:"Deadlock"

let test_buggy_condition_caught =
  twin_caught "buggy-condition-wait"
    ~buggy:(condition_mailbox bad_cond)
    ~faithful:(condition_mailbox good_cond)
    ~expect_reason:"Deadlock"

let test_buggy_wait_after_unlock_caught =
  twin_caught "buggy-condition-wait, signal after unlock"
    ~buggy:(mailbox_after_unlock bad_cond)
    ~faithful:(mailbox_after_unlock good_cond)
    ~expect_reason:"Deadlock"

let test_buggy_unlock_after_unlock_caught =
  twin_caught "buggy-mutex-unlock, signal after unlock"
    ~buggy:(mailbox_after_unlock bad_unlock_cond)
    ~faithful:(mailbox_after_unlock good_cond)
    ~expect_reason:"Deadlock"

let test_buggy_scope_caught =
  twin_caught "buggy-scope-leave"
    ~buggy:(scope_exit_race buggy_scope)
    ~faithful:(scope_exit_race scope)
    ~expect_reason:"Deadlock"

(* The get-then-set release loses the 1 -> 0 crossing: two sharing ULPs
   close, nobody destroys -- the host fd leaks. *)
let test_buggy_fd_caught =
  twin_caught "buggy-fd-refcount"
    ~buggy:(rc_two_releases bad_rc)
    ~faithful:(rc_two_releases good_rc)
    ~expect_reason:"fd-refcount"

(* The unguarded retain resurrects a destroyed handle: a lookup racing
   the last release pins a dead fd, whose release destroys it again. *)
let test_buggy_fd_resurrect_caught =
  twin_caught "buggy-fd-resurrect"
    ~buggy:(rc_retain_vs_last_release bad_rc)
    ~faithful:(rc_retain_vs_last_release good_rc)
    ~expect_reason:"fd-refcount"

(* The get-then-set finish publishes the result over a stale joiner
   list: the parked joiner is never woken. *)
let test_buggy_join_caught =
  twin_caught "buggy-join-finish"
    ~buggy:(joiner_vs_finish buggy_compl)
    ~faithful:(joiner_vs_finish compl)
    ~expect_reason:"Deadlock"

(* ---------- the KC pool ---------- *)

let test_kc_pool_lease_vs_exit () =
  ignore
    (expect_pass "kc-pool-lease-vs-exit"
       (Sched.check ~max_schedules:20_000 kc_pool_lease_vs_exit));
  match Sched.fuzz ~runs:2_000 ~seed:Test_seed.seed kc_pool_lease_vs_exit with
  | Sched.Fuzz_pass _ -> ()
  | Sched.Fuzz_bug f ->
      Sched.dump_failure ~file:trace_file f;
      Sched.print_failure f;
      Alcotest.failf "kc-pool: fuzzed schedule failed (dumped to %s)" trace_file

let exhaustive ?(max_schedules = 20_000) name scenario () =
  let stats = expect_pass name (Sched.check ~max_schedules scenario) in
  Printf.printf "%s: %d schedules\n%!" name stats.Sched.schedules;
  Alcotest.(check bool) "exhaustive" true stats.Sched.complete

let test_kc_pool_lease_recycle =
  exhaustive "kc-pool-lease-recycle" kc_pool_lease_recycle

let test_interest_two_directions =
  exhaustive ~max_schedules:2_000_000 "interest-two-directions"
    (interest_two_directions interest)

let test_interest_arm_vs_fire =
  exhaustive "interest-arm-vs-fire" (interest_arm_vs_fire interest)

let test_interest_timeout_unwatch =
  exhaustive ~max_schedules:2_000_000 "interest-timeout-unwatch"
    (interest_timeout_unwatch interest)

let test_interest_arm_vs_close =
  exhaustive "interest-arm-vs-close" (interest_arm_vs_close interest)

let test_interest_bare_wait_rearms =
  exhaustive "interest-bare-wait-rearms" (interest_bare_wait_rearms interest)

let test_park_flag_vs_post =
  exhaustive "park-flag-vs-post" (park_flag_vs_post poll_park)

let test_park_hand_off =
  exhaustive "park-hand-off" (park_hand_off poll_park)

let test_buggy_park_late_flag =
  twin_caught "buggy-park-late-flag"
    ~buggy:(park_flag_vs_post late_flag)
    ~faithful:(park_flag_vs_post poll_park)
    ~expect_reason:"Deadlock"

let test_buggy_park_no_hand_off =
  twin_caught "buggy-park-no-hand-off"
    ~buggy:(park_hand_off no_hand_off)
    ~faithful:(park_hand_off poll_park)
    ~expect_reason:"Deadlock"

let test_mailbox_submit_vs_sleep =
  exhaustive "mailbox-submit-vs-sleep" (mailbox_submit_vs_sleep kc_mailbox)

let test_mailbox_shutdown_vs_sleep =
  exhaustive "mailbox-shutdown-vs-sleep" (mailbox_shutdown_vs_sleep kc_mailbox)

let test_mailbox_owed_across_park =
  exhaustive "mailbox-owed-across-park" (mailbox_owed_across_park kc_mailbox)

let test_buggy_mailbox_late_sleeping =
  twin_caught "buggy-mailbox-late-sleeping"
    ~buggy:(mailbox_submit_vs_sleep late_sleeping)
    ~faithful:(mailbox_submit_vs_sleep kc_mailbox)
    ~expect_reason:"Deadlock"

let test_buggy_mailbox_drops_owed =
  twin_caught "buggy-mailbox-drops-owed"
    ~buggy:(mailbox_owed_across_park drops_owed)
    ~faithful:(mailbox_owed_across_park kc_mailbox)
    ~expect_reason:"Deadlock"

let test_buggy_interest_drops_entry =
  twin_caught "buggy-interest-drops-entry"
    ~buggy:(interest_two_directions drops_entry)
    ~faithful:(interest_two_directions interest)
    ~expect_reason:"Deadlock"

let test_buggy_interest_two_sections =
  twin_caught "buggy-interest-two-sections"
    ~buggy:(interest_arm_vs_fire two_sections)
    ~faithful:(interest_arm_vs_fire interest)
    ~expect_reason:"Deadlock"

let test_buggy_interest_no_rearm =
  twin_caught "buggy-interest-no-rearm"
    ~buggy:(interest_bare_wait_rearms no_rearm)
    ~faithful:(interest_bare_wait_rearms interest)
    ~expect_reason:"Deadlock"

let test_buggy_interest_close_unlocked =
  twin_caught "buggy-interest-close-unlocked"
    ~buggy:(interest_arm_vs_close close_unlocked)
    ~faithful:(interest_arm_vs_close interest)
    ~expect_reason:"Deadlock"

(* ---------- the checker catches the seeded bug ---------- *)

let test_buggy_deque_caught () =
  let f, stats = expect_bug "buggy-deque" (Sched.check (pop_steal_race buggy_adq)) in
  Printf.printf
    "seeded bug caught after %d schedules; failing schedule: %s\n%!"
    stats.Sched.schedules
    (String.concat "," (List.map string_of_int f.Sched.f_schedule));
  print_string (Sched.failure_to_string f);
  (* the printed schedule replays to the same failure *)
  (match Sched.replay ~schedule:f.Sched.f_schedule (pop_steal_race buggy_adq) with
  | Error f' ->
      Alcotest.(check string)
        "replay reproduces the same failure" f.Sched.f_reason f'.Sched.f_reason
  | Ok _ -> Alcotest.fail "replay of the failing schedule passed");
  (* and the faithful deque survives the exact same schedule *)
  match Sched.replay ~schedule:f.Sched.f_schedule (pop_steal_race adq) with
  | Ok _ -> ()
  | Error f' ->
      Sched.print_failure f';
      Alcotest.fail "faithful deque failed the buggy deque's schedule"

let test_buggy_steal_batch_caught () =
  let f, stats =
    expect_bug "wide-CAS steal_batch"
      (Sched.check ~max_schedules:4_000 (steal_batch_vs_pop buggy_adq))
  in
  Printf.printf
    "wide-CAS steal_batch double-claim caught after %d schedules\n%!"
    stats.Sched.schedules;
  Alcotest.(check bool)
    "double-claim reported" true
    (contains ~sub:"claimed" f.Sched.f_reason);
  (* the faithful per-element-CAS batch survives the failing schedule *)
  match Sched.replay ~schedule:f.Sched.f_schedule (steal_batch_vs_pop adq) with
  | Ok _ -> ()
  | Error f' ->
      Sched.print_failure f';
      Alcotest.fail "faithful steal_batch failed the wide-CAS schedule"

let test_buggy_completion_caught () =
  let f, stats =
    expect_bug "lost-wakeup finish"
      (Sched.check (completion_race buggy_compl))
  in
  Printf.printf "lost wake-up caught after %d schedules: %s\n%!"
    stats.Sched.schedules f.Sched.f_reason;
  (* the seeded get-then-set finish drops a joiner's wake, which strands
     its wait_until: the checker must see it as a deadlock *)
  Alcotest.(check bool)
    "reported as deadlock" true
    (contains ~sub:"Deadlock" f.Sched.f_reason);
  match Sched.replay ~schedule:f.Sched.f_schedule (completion_race compl) with
  | Ok _ -> ()
  | Error f' ->
      Sched.print_failure f';
      Alcotest.fail "faithful completion failed the buggy finish's schedule"

let test_fuzzer_finds_seeded_bug () =
  match Sched.fuzz ~runs:500 ~seed:Test_seed.seed (pop_steal_race buggy_adq) with
  | Sched.Fuzz_pass _ ->
      Alcotest.fail "fuzzer missed the seeded bug in 500 schedules"
  | Sched.Fuzz_bug f -> (
      let seed =
        match f.Sched.f_seed with
        | Some s -> s
        | None -> Alcotest.fail "fuzz failure carries no seed"
      in
      Printf.printf "fuzzer caught the seeded bug: CHECK_SEED=%d reproduces\n%!"
        seed;
      print_string (Sched.failure_to_string f);
      (* CHECK_SEED replay path: the seed alone rebuilds the schedule *)
      match Sched.fuzz_one ~seed (pop_steal_race buggy_adq) with
      | Error f' ->
          Alcotest.(check string)
            "seed replays to the same failure" f.Sched.f_reason
            f'.Sched.f_reason
      | Ok _ -> Alcotest.fail "CHECK_SEED replay passed")

let test_fuzz_real_structures_clean () =
  List.iter
    (fun (name, scen) ->
      match Sched.fuzz ~runs:300 ~seed:Test_seed.seed scen with
      | Sched.Fuzz_pass _ -> ()
      | Sched.Fuzz_bug f ->
          Sched.dump_failure ~file:trace_file f;
          Sched.print_failure f;
          Alcotest.failf "%s: fuzzer found a bug (CHECK_SEED=%s)" name
            (match f.Sched.f_seed with
            | Some s -> string_of_int s
            | None -> "?"))
    [
      ("deque-conservation", deque_conservation);
      ("deque-growth", deque_growth);
      ("steal-batch-vs-pop", steal_batch_vs_pop adq);
      ("completion-race", completion_race compl);
      ("readiness-register-vs-post", readiness_register_vs_post rdy);
      ("readiness-two-posters", readiness_two_posters rdy);
      ("readiness-timeout-vs-ready", readiness_timeout_vs_ready rdy);
      ("readiness-rebind", readiness_rebind rdy);
      ("idle-take-vs-pop", idle_take_vs_pop idle);
      ("idle-wake-vs-park", idle_wake_vs_park idle);
      ("mpsc", mpsc_enqueue_drain);
      ("mailbox-signal-after-unlock", mailbox_after_unlock good_cond);
      ("couple-vs-steal", couple_vs_steal ~buggy:false);
      ("mutex-exclusion-park", mutex_exclusion good_mutex);
      ("condition-mailbox", condition_mailbox good_cond);
      ("scope-exit-race", scope_exit_race scope);
      ("scope-fail-race", scope_fail_race scope);
      ("fd-shared-close", fd_shared_close);
      ("fd-dup-vs-close", fd_dup_vs_close);
      ("fd-dup2-vs-close", fd_dup2_vs_close);
      ("fd-alloc-race", fd_alloc_race);
      ("fd-alloc-vs-ordered-closes", fd_alloc_vs_ordered_closes);
      ("fd-lookup-vs-close", fd_lookup_vs_close);
      ("fd-grow-vs-close", fd_grow_vs_close);
      ("fd-grow-vs-alloc", fd_grow_vs_alloc);
      ("fd-grow-vs-dup2", fd_grow_vs_dup2);
      ("fd-grow-two-growers", fd_grow_two_growers);
      ("joiner-vs-finish", joiner_vs_finish compl);
      ("two-joiners", two_joiners compl);
    ]

(* ---------- the acceptance gate: >= 10k interleavings, bounded time -- *)

let test_interleaving_budget () =
  let t0 = Unix.gettimeofday () in
  let total =
    List.fold_left
      (fun acc (name, cap, scen) ->
        let stats = expect_pass name (Sched.check ~max_schedules:cap scen) in
        Printf.printf "  %-24s %s\n%!" name
          (Format.asprintf "%a" Sched.pp_stats stats);
        acc + stats.Sched.schedules)
      0
      [
        ("pop-steal-race", 4_000, pop_steal_race adq);
        ("deque-conservation", 4_000, deque_conservation);
        ("deque-growth", 4_000, deque_growth);
        ("steal-batch-vs-pop", 4_000, steal_batch_vs_pop adq);
        ("completion-race", 4_000, completion_race compl);
        ("readiness-register-vs-post", 4_000, readiness_register_vs_post rdy);
        ("readiness-two-posters", 4_000, readiness_two_posters rdy);
        ("readiness-timeout-vs-ready", 4_000, readiness_timeout_vs_ready rdy);
        ("readiness-rebind", 8_000, readiness_rebind rdy);
        ("idle-take-vs-pop", 4_000, idle_take_vs_pop idle);
        ("idle-two-flushes", 4_000, idle_two_flushes idle);
        ("idle-wake-vs-park", 4_000, idle_wake_vs_park idle);
        ("mpsc-enqueue-drain", 4_000, mpsc_enqueue_drain);
        ("mailbox-signal-after-unlock", 4_000, mailbox_after_unlock good_cond);
        ("couple-vs-steal", 4_000, couple_vs_steal ~buggy:false);
        ("mutex-exclusion-park", 8_000, mutex_exclusion good_mutex);
        ("condition-mailbox", 8_000, condition_mailbox good_cond);
        ("scope-exit-race", 4_000, scope_exit_race scope);
        ("scope-fail-race", 8_000, scope_fail_race scope);
        ("fd-shared-close", 4_000, fd_shared_close);
        ("fd-dup-vs-close", 8_000, fd_dup_vs_close);
        ("fd-dup2-vs-close", 8_000, fd_dup2_vs_close);
        ("fd-alloc-race", 4_000, fd_alloc_race);
        ("fd-alloc-vs-ordered-closes", 4_000, fd_alloc_vs_ordered_closes);
        ("fd-lookup-vs-close", 4_000, fd_lookup_vs_close);
        ("fd-grow-vs-close", 4_000, fd_grow_vs_close);
        ("fd-grow-vs-alloc", 4_000, fd_grow_vs_alloc);
        ("fd-grow-vs-dup2", 4_000, fd_grow_vs_dup2);
        ("fd-grow-two-growers", 4_000, fd_grow_two_growers);
        ("joiner-vs-finish", 4_000, joiner_vs_finish compl);
        ("two-joiners", 8_000, two_joiners compl);
      ]
  in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "explored %d distinct interleavings in %.2fs\n%!" total dt;
  Alcotest.(check bool)
    (Printf.sprintf "at least 10k distinct interleavings (got %d)" total)
    true (total >= 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "under 60s (took %.2fs)" dt)
    true (dt < 60.0)

let () =
  Test_seed.announce "test_check";
  Alcotest.run "check"
    [
      ( "deque",
        [
          Alcotest.test_case "size-1 pop vs steal race" `Quick
            test_pop_steal_race;
          Alcotest.test_case "push/steal/pop conservation" `Quick
            test_deque_conservation;
          Alcotest.test_case "growth under concurrent steal" `Quick
            test_deque_growth;
          Alcotest.test_case "steal-half vs owner pops conserves" `Quick
            test_steal_batch_conservation;
        ] );
      ( "completion",
        [
          Alcotest.test_case "finish vs joiners wakes exactly once" `Quick
            test_completion_race;
          Alcotest.test_case "get-then-set finish loses a wakeup" `Quick
            test_buggy_completion_caught;
          Alcotest.test_case "wide-CAS steal_batch double-claims" `Quick
            test_buggy_steal_batch_caught;
          Alcotest.test_case "parked joiner vs finish wakes it" `Quick
            test_joiner_vs_finish;
          Alcotest.test_case "one finish wakes every parked joiner" `Quick
            test_two_joiners;
          Alcotest.test_case "get-then-set finish strands a joiner" `Quick
            test_buggy_join_caught;
        ] );
      ( "readiness",
        [
          Alcotest.test_case "register vs post wakes exactly once" `Quick
            test_readiness_register_vs_post;
          Alcotest.test_case "two posters, one winner" `Quick
            test_readiness_two_posters;
          Alcotest.test_case "timeout vs ready claims one verdict" `Quick
            test_readiness_timeout_vs_ready;
          Alcotest.test_case "get-then-set post loses the waiter" `Quick
            test_buggy_reactor_caught;
          Alcotest.test_case "get-then-set post double-wakes" `Quick
            test_buggy_reactor_double_wake;
          Alcotest.test_case "rebind wakes once per registration"
            `Quick test_readiness_rebind;
          Alcotest.test_case "get-then-set post strands the rebind" `Quick
            test_buggy_rebind_caught;
        ] );
      ( "idle-waker",
        [
          Alcotest.test_case "targeted take vs pop conserves ids" `Quick
            test_idle_take_vs_pop;
          Alcotest.test_case "two flushes, one winner" `Quick
            test_idle_two_flushes;
          Alcotest.test_case "park-cancel vs waker claims once" `Quick
            test_idle_wake_vs_park;
          Alcotest.test_case "get-then-set take resurrects a worker" `Quick
            test_buggy_idle_caught;
          Alcotest.test_case "get-then-set take double-takes" `Quick
            test_buggy_idle_double_token;
          Alcotest.test_case "get-then-set take double-claims the park" `Quick
            test_buggy_idle_wake_vs_park;
        ] );
      ( "mpsc",
        [ Alcotest.test_case "enqueue vs drain" `Quick test_mpsc ] );
      ( "condition",
        [
          Alcotest.test_case "mailbox, signal after unlock" `Quick
            test_mailbox_after_unlock;
          Alcotest.test_case "unlock-before-publish wait caught, signal after \
                              unlock"
            `Quick test_buggy_wait_after_unlock_caught;
          Alcotest.test_case "get-then-set unlock caught, signal after unlock"
            `Quick test_buggy_unlock_after_unlock_caught;
          Alcotest.test_case "forgotten signal = deadlock" `Quick
            test_deadlock_detected;
        ] );
      ( "kc-pool",
        [
          Alcotest.test_case "owners exit while fibers lease" `Quick
            test_kc_pool_lease_vs_exit;
          Alcotest.test_case "lease and recycle, explored fully"
            `Quick test_kc_pool_lease_recycle;
        ] );
      ( "interest",
        [
          Alcotest.test_case "reader and writer on one fd both wake" `Quick
            test_interest_two_directions;
          Alcotest.test_case "arm vs fire never loses the report" `Quick
            test_interest_arm_vs_fire;
          Alcotest.test_case "timeout unwatch leaves no stale watch" `Quick
            test_interest_timeout_unwatch;
          Alcotest.test_case "arm vs shutdown never strands the waiter" `Quick
            test_interest_arm_vs_close;
          Alcotest.test_case "dropping the entry on fire strands the writer"
            `Quick test_buggy_interest_drops_entry;
          Alcotest.test_case "pending check apart from publish loses the edge"
            `Quick test_buggy_interest_two_sections;
          Alcotest.test_case "closed read outside the lock strands the arm"
            `Quick test_buggy_interest_close_unlocked;
          Alcotest.test_case "a bare wait re-arms an fd still ready" `Quick
            test_interest_bare_wait_rearms;
          Alcotest.test_case "a bare wait without the re-arm hangs the backlog"
            `Quick test_buggy_interest_no_rearm;
        ] );
      ( "poll-park",
        [
          Alcotest.test_case "a wake owed in the poller ends the wait" `Quick
            test_park_flag_vs_post;
          Alcotest.test_case "a leaving turn holder hands the turn on" `Quick
            test_park_hand_off;
          Alcotest.test_case "flag after the re-check loses the wake" `Quick
            test_buggy_park_late_flag;
          Alcotest.test_case "no hand-off strands a parked peer" `Quick
            test_buggy_park_no_hand_off;
        ] );
      ( "kc-mailbox",
        [
          Alcotest.test_case "a submit racing the KC's sleep wakes it" `Quick
            test_mailbox_submit_vs_sleep;
          Alcotest.test_case "shutdown racing the KC's sleep ends it" `Quick
            test_mailbox_shutdown_vs_sleep;
          Alcotest.test_case "a completion wake owed across park arrives"
            `Quick test_mailbox_owed_across_park;
          Alcotest.test_case "flag after the unlock loses the submit" `Quick
            test_buggy_mailbox_late_sleeping;
          Alcotest.test_case "dropping the owed wake strands the worker"
            `Quick test_buggy_mailbox_drops_owed;
        ] );
      ( "couple",
        [
          Alcotest.test_case "couple vs steal keeps home KC" `Quick
            test_couple_vs_steal;
          Alcotest.test_case "foreign-KC syscall caught" `Quick
            test_couple_vs_steal_buggy;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutex exclusion + handoff (park)" `Quick
            test_mutex_exclusion;
          Alcotest.test_case "condition mailbox never loses the signal" `Quick
            test_condition_mailbox;
          Alcotest.test_case "get-then-set unlock strands a locker" `Quick
            test_buggy_mutex_caught;
          Alcotest.test_case "unlock-before-publish wait loses the signal"
            `Quick test_buggy_condition_caught;
        ] );
      ( "scope",
        [
          Alcotest.test_case "exit race completes exactly once" `Quick
            test_scope_exit_race;
          Alcotest.test_case "racing failures record one winner" `Quick
            test_scope_fail_race;
          Alcotest.test_case "get-then-set leave strands the parent" `Quick
            test_buggy_scope_caught;
        ] );
      ( "proc",
        [
          Alcotest.test_case "shared fd closes destroy exactly once" `Quick
            test_fd_shared_close;
          Alcotest.test_case "dup vs last close never resurrects" `Quick
            test_fd_dup_vs_close;
          Alcotest.test_case "dup2 displaces the target exactly once" `Quick
            test_fd_dup2_vs_close;
          Alcotest.test_case "racing allocs take the lowest free slots"
            `Quick test_fd_alloc_race;
          Alcotest.test_case "grow vs close keeps the slot closed" `Quick
            test_fd_grow_vs_close;
          Alcotest.test_case "grow vs alloc keeps the claim" `Quick
            test_fd_grow_vs_alloc;
          Alcotest.test_case "grow vs dup2 keeps the displacement" `Quick
            test_fd_grow_vs_dup2;
          Alcotest.test_case "two growers publish one array" `Quick
            test_fd_grow_two_growers;
          Alcotest.test_case "get-then-set release leaks the host fd" `Quick
            test_buggy_fd_caught;
          Alcotest.test_case "unguarded retain double-closes" `Quick
            test_buggy_fd_resurrect_caught;
          Alcotest.test_case "an alloc racing ordered closes is lowest-free"
            `Quick test_fd_alloc_vs_ordered_closes;
          Alcotest.test_case "a lookup racing a close pins or fails" `Quick
            test_fd_lookup_vs_close;
        ] );
      ( "checker",
        [
          Alcotest.test_case "seeded deque bug caught + replay" `Quick
            test_buggy_deque_caught;
          Alcotest.test_case "fuzzer catches seeded bug via CHECK_SEED" `Quick
            test_fuzzer_finds_seeded_bug;
          Alcotest.test_case "fuzzer clean on real structures" `Quick
            test_fuzz_real_structures_clean;
          Alcotest.test_case "10k interleavings under 60s" `Quick
            test_interleaving_budget;
        ] );
    ]
