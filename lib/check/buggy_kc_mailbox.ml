(* TEST-ONLY copies of the KC mailbox, each with one deliberately
   seeded bug.  Both leave a thread asleep with nobody to wake it, which
   the interleaving checker reports as a deadlock:

   - [Late_sleeping.serve]: the KC sets [sleeping] after it unlocks the
     mailbox.  A submit landing between the two finds the flag clear
     and does not unpark; the KC then parks with a job queued.

   - [Drops_owed.serve]: the KC's park forgets the wake it owes instead
     of sending it.  The worker whose coupled section the KC just
     completed sleeps on with its result ready.

   test_check asserts that the checker catches each twin while the
   faithful [Kc_mailbox] passes the same scenarios exhaustively.  Never
   use outside tests. *)

module Late_sleeping = struct
  include Kc_mailbox

  let serve t ~run =
    let rec loop () =
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
          Mutex.unlock t.mutex;
          (* THE SEEDED BUG: the faithful KC sets the flag before the
             unlock, so a submit under the lock sees it.  Out here the
             store races the submit's critical section: a step of its
             own on the mutex's object, so the explorer can order a
             whole submit before it. *)
          Sched.atomic_step ~kind:Sched.Set ~obj:t.mutex.Mutex.id
            ~note:"sleeping" (fun () -> t.sleeping <- true);
          Parker.park t.parker;
          loop ()
    in
    loop ()
end

module Drops_owed = struct
  include Kc_mailbox

  let serve t ~run =
    let rec loop () =
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
          (* THE SEEDED BUG: the faithful park sends the owed wake
             once the runtime lock is free *)
          Parker.drop_owed ();
          Parker.sleep t.parker;
          loop ()
    in
    loop ()
end
