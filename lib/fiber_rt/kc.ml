(* An original KC: a dedicated OS thread that runs its fiber's coupled
   sections and nothing else -- the real-runtime analogue of a BLT's
   original kernel context.  Every section of one fiber runs on the same
   OS thread, so everything keyed to the executing thread (thread id,
   per-thread state, blocking syscalls) is consistent across sections:
   the system-call-consistency property of the paper's couple().

   A KC is one job slot and the [Parker] its thread sleeps on.  The slot
   never holds more than one section: [Blt_rt.coupled] is the only
   submitter, its fiber stays parked until its own section wakes it, and
   a nested [coupled] on the KC thread raises [Not_in_scheduler].  The
   KC takes a section off the slot before it runs it, so when a recycled
   KC gets its next owner, that owner's first section lands in an empty
   slot.

   The handoff is the parker's own: [submit] stores the section, then
   unparks.  The KC reads [stopping], then takes the slot; when it is
   empty and the KC was not stopping, it parks.  A submit landing between the KC's empty check
   and its park leaves the permit set, so the park returns at once.

   The KC sends its owed wake ([Parker.flush]) before each section: the
   tail of the previous one (its completion wake) deferred it, and the
   next one may take long or block.  When the slot is empty,
   [Parker.park] sends it right after releasing the runtime lock; at
   exit, the last flush.

   A run's KCs are a pool: a fiber's first coupled section leases one (a
   free one, else a new one, registered in [all] so the run can shut it
   down), and the fiber keeps it until it finishes; then [recycle] pushes
   it straight back on the free list.  Both lists sit under one mutex,
   held for one push or pop: a lease happens once per coupling fiber, so
   the lock is cold.  A new KC is created outside it.

   lib/check recompiles this file over a modelled parker and a traced
   Atomic and Mutex; its scenarios build KCs with [create], which starts
   no thread, and run [serve] as a simulated thread.  The pool is
   polymorphic in the KC so the checker can also lease plain records. *)

type t = {
  slot : (unit -> unit) option Atomic.t;
  stopping : bool Atomic.t;
  parker : Parker.t;
  mutable thread : Thread.t option;
}

let create () =
  {
    slot = Atomic.make None;
    stopping = Atomic.make false;
    parker = Parker.create ();
    thread = None;
  }

let submit t section =
  if Atomic.get t.stopping then invalid_arg "Kc.submit: the KC is stopping";
  if not (Atomic.compare_and_set t.slot None (Some section)) then
    invalid_arg "Kc.submit: a section is already pending";
  Parker.unpark t.parker

(* The KC's loop: run the pending section, park while there is none,
   return once stopping with the slot empty.  It reads [stopping] before
   it takes the slot: a section stored before the shutdown is then
   always taken, where a read after an empty take could see a shutdown
   that followed a store in between, and exit on a pending section. *)
let rec serve t =
  let stopping = Atomic.get t.stopping in
  match Atomic.exchange t.slot None with
  | Some section ->
      Parker.flush ();
      section ();
      serve t
  | None when stopping -> Parker.flush ()
  | None ->
      (* ulplint: allow blocking-in-fiber -- the KC's own idle sleep: a KC is a dedicated OS thread, not a worker, and [park] releases the runtime lock *)
      Parker.park t.parker;
      serve t

let start () =
  let t = create () in
  t.thread <- Some (Thread.create serve t);
  t

let thread_id t = match t.thread with Some th -> Thread.id th | None -> -1

let shutdown t =
  Atomic.set t.stopping true;
  Parker.unpark t.parker;
  Option.iter Thread.join t.thread

type 'kc pool = { lock : Mutex.t; mutable free : 'kc list; mutable all : 'kc list }

let pool () = { lock = Mutex.create (); free = []; all = [] }

let locked p f =
  (* ulplint: allow raw-mutex-in-fiber -- the KC pool's lock, taken by fibers on any worker domain and by the run's exit; held for one list push or pop, never across a syscall, a wake or a park *)
  Mutex.lock p.lock;
  let r = f () in
  Mutex.unlock p.lock;
  r

let lease p ~create =
  let free =
    locked p (fun () ->
        match p.free with
        | kc :: rest ->
            p.free <- rest;
            Some kc
        | [] -> None)
  in
  match free with
  | Some kc -> kc
  | None ->
      let kc = create () in
      locked p (fun () -> p.all <- kc :: p.all);
      kc

let recycle p kc = locked p (fun () -> p.free <- kc :: p.free)

let all p = locked p (fun () -> p.all)
