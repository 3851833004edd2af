(* A dedicated OS thread with a job mailbox: the real-runtime analogue of
   a BLT's original kernel context.  Jobs run in FIFO order on the same
   OS thread every time, so everything keyed to the executing thread
   (thread id, per-thread state, blocking syscalls) is consistent across
   jobs -- which is exactly the system-call-consistency property the
   paper's couple() provides.  The mailbox and the KC's sleep live in
   [Kc_mailbox]. *)

type t = { mailbox : (unit -> unit) Kc_mailbox.t; mutable thread : Thread.t option }

(* A raising job must not kill the KC thread.  [Blt_rt.coupled], the
   only submitter in the runtime, catches its section's exception itself
   and re-raises it in the fiber. *)
let run job = try job () with _ -> ()

let create () =
  let t = { mailbox = Kc_mailbox.create (); thread = None } in
  t.thread <- Some (Thread.create (fun () -> Kc_mailbox.serve t.mailbox ~run) ());
  t

let submit t job =
  if not (Kc_mailbox.submit t.mailbox job) then
    invalid_arg "Executor.submit: executor is stopping"

(* The OS thread id jobs run on (for consistency assertions). *)
let thread_id t =
  match t.thread with Some th -> Thread.id th | None -> -1

let shutdown t =
  Kc_mailbox.shutdown t.mailbox;
  match t.thread with
  | Some th ->
      Thread.join th;
      t.thread <- None
  | None -> ()
