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
  mutable running : bool; (* a job is executing; guarded by [mutex] *)
  mutable thread : Thread.t option;
  mutable executed : int;
  mutable failures : int; (* jobs that raised *)
  mutable last_error : exn option;
}

let worker t () =
  let rec loop () =
    (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
    Mutex.lock t.mutex;
    t.running <- false;
    while Queue.is_empty t.jobs && not t.stopping do
      (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
      Condition.wait t.cond t.mutex
    done;
    if Queue.is_empty t.jobs && t.stopping then Mutex.unlock t.mutex
    else begin
      let job = Queue.pop t.jobs in
      t.running <- true;
      Mutex.unlock t.mutex;
      (* A raising job must not kill the KC thread, but silently eating
         the exception hides real failures: record it for the owner. *)
      (try job ()
       with exn ->
         (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
         Mutex.lock t.mutex;
         t.failures <- t.failures + 1;
         t.last_error <- Some exn;
         Mutex.unlock t.mutex);
      t.executed <- t.executed + 1;
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
      running = false;
      thread = None;
      executed = 0;
      failures = 0;
      last_error = None;
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
    Condition.signal t.cond;
    Mutex.unlock t.mutex
  end

let executed t = t.executed

let failures t =
  (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
  Mutex.lock t.mutex;
  let n = t.failures in
  Mutex.unlock t.mutex;
  n

let last_error t =
  (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
  Mutex.lock t.mutex;
  let e = t.last_error in
  Mutex.unlock t.mutex;
  e

(* Forget the failure record: what a KC does between two leases, so
   the next owner starts clean. *)
let clear_failures t =
  (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
  Mutex.lock t.mutex;
  t.failures <- 0;
  t.last_error <- None;
  Mutex.unlock t.mutex

(* [clear_failures], but only when no job is queued or running -- one
   step under the mailbox mutex, so no job can slip in between the
   check and the reset.  [false] leaves the record alone. *)
let clear_failures_if_idle t =
  (* ulplint: allow raw-mutex-in-fiber -- the mailbox of a dedicated OS thread (a KC): producers are foreign threads or fibers, the consumer is this thread -- fiber-aware parking cannot wake an OS thread *)
  Mutex.lock t.mutex;
  let idle = Queue.is_empty t.jobs && not t.running in
  if idle then begin
    t.failures <- 0;
    t.last_error <- None
  end;
  Mutex.unlock t.mutex;
  idle

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
