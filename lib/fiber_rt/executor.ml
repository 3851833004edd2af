(* A dedicated OS thread with a job mailbox: the real-runtime analogue of
   a BLT's original kernel context.  Jobs run in FIFO order on the same
   OS thread every time, so everything keyed to the executing thread
   (thread id, per-thread state, blocking syscalls) is consistent across
   jobs -- which is exactly the system-call-consistency property the
   paper's couple() provides. *)

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable thread : Thread.t option;
}

let worker t () =
  let rec loop () =
    (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
    Mutex.lock t.mutex;
    while Queue.is_empty t.jobs && not t.stopping do
      (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
      Condition.wait t.cond t.mutex
    done;
    if Queue.is_empty t.jobs && t.stopping then Mutex.unlock t.mutex
    else begin
      let job = Queue.pop t.jobs in
      Mutex.unlock t.mutex;
      (* A raising job must not kill the KC thread.  [Blt_rt.coupled],
         the only submitter in the runtime, catches its section's
         exception itself and re-raises it in the fiber. *)
      (try job () with _ -> ());
      loop ()
    end
  in
  loop ()

let create () =
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      jobs = Queue.create ();
      stopping = false;
      thread = None;
    }
  in
  t.thread <- Some (Thread.create (worker t) ());
  t

let submit t job =
  (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    invalid_arg "Executor.submit: executor is stopping"
  end
  else begin
    Queue.push job t.jobs;
    Mutex.unlock t.mutex;
    Condition.signal t.cond
  end

(* The OS thread id jobs run on (for consistency assertions). *)
let thread_id t =
  match t.thread with Some th -> Thread.id th | None -> -1

let shutdown t =
  (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  match t.thread with
  | Some th ->
      Thread.join th;
      t.thread <- None
  | None -> ()
