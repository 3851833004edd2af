(* The mailbox of an original KC: a FIFO of jobs under one mutex, and
   the KC's sleep/submit/shutdown handshake, factored out of [Executor]
   so lib/check recompiles this exact file over a modelled parker.

   The KC sleeps on its own [Parker] behind the [sleeping] flag, which
   is read and written only under [mutex]: the KC sets it before it
   unlocks to sleep, and a producer that finds it set clears it and
   unparks.  So every sleep gets exactly one unpark, and a job pushed
   while the KC is between its unlock and its park finds the flag set
   and leaves the permit for the park to consume.

   The KC sends its owed wake ([Parker.flush]) before each job: the
   tail of the previous job (a coupled section's completion wake)
   deferred it, and the next job may take long or block.  When no job
   is left, [Parker.park] sends it right after releasing the runtime
   lock; at exit, the last flush. *)

type 'job t = {
  mutex : Mutex.t;
  jobs : 'job Queue.t;
  parker : Parker.t;
  mutable sleeping : bool; (* the KC sleeps on [parker], or is about to *)
  mutable stopping : bool;
}

let create () =
  {
    mutex = Mutex.create ();
    jobs = Queue.create ();
    parker = Parker.create ();
    sleeping = false;
    stopping = false;
  }

(* The KC needs an unpark iff it is asleep; the caller holds [mutex]. *)
let claim_sleeper t =
  let s = t.sleeping in
  t.sleeping <- false;
  s

let submit t job =
  (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    false
  end
  else begin
    Queue.push job t.jobs;
    let wake = claim_sleeper t in
    Mutex.unlock t.mutex;
    if wake then Parker.unpark t.parker;
    true
  end

let shutdown t =
  (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
  Mutex.lock t.mutex;
  t.stopping <- true;
  let wake = claim_sleeper t in
  Mutex.unlock t.mutex;
  if wake then Parker.unpark t.parker

(* The KC's loop: run each job in FIFO order, sleep while there is none,
   return once stopping with the queue drained. *)
let serve t ~run =
  let rec loop () =
    (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
    Mutex.lock t.mutex;
    match Queue.take_opt t.jobs with
    | Some job ->
        Mutex.unlock t.mutex;
        Parker.flush ();
        run job;
        loop ()
    | None when t.stopping ->
        Mutex.unlock t.mutex;
        Parker.flush ()
    | None ->
        t.sleeping <- true;
        Mutex.unlock t.mutex;
        (* ulplint: allow blocking-in-fiber -- the KC's own idle sleep: a KC is a dedicated OS thread, not a worker, and [park] releases the runtime lock *)
        Parker.park t.parker;
        loop ()
  in
  loop ()
