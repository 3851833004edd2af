(* TEST-ONLY copy of Kc_pool with a deliberately seeded bug: [recycle]
   resets the KC and pushes it on the free list the moment its owner
   fiber finishes, instead of (when the KC still has work) as the last
   job on the KC.

   A job the dead owner queued -- a raw [Executor.submit] it never
   waited for -- is then still in the KC's mailbox when the next fiber
   leases the KC, so it runs under the new lease: its failure lands on
   the new owner's record, and anything thread-keyed it does happens
   inside someone else's original KC.  The faithful [recycle] either
   finds the KC idle (nothing can be pending) or queues the push behind
   every earlier job.

   test_check asserts that the checker reports a bug on THIS module for
   two owners exiting while two fibers lease, while the faithful copy
   passes the same schedules.  Never use outside tests. *)

type 'kc t = { free : 'kc list Atomic.t; all : 'kc list Atomic.t }

let create () = { free = Atomic.make []; all = Atomic.make [] }

let rec push stack kc =
  let l = Atomic.get stack in
  if not (Atomic.compare_and_set stack l (kc :: l)) then push stack kc

let rec pop stack =
  match Atomic.get stack with
  | [] -> None
  | kc :: rest as l -> if Atomic.compare_and_set stack l rest then Some kc else pop stack

let lease t ~create =
  match pop t.free with
  | Some kc -> kc
  | None ->
      let kc = create () in
      push t.all kc;
      kc

let recycle t ~reset_if_idle:_ ~submit:_ ~reset kc =
  (* THE SEEDED BUG: the correct code returns the KC here only if it is
     idle, and otherwise submits the reset-and-push as the KC's last
     job.  Pushing now hands a KC with the old owner's work still
     queued to the next lease. *)
  reset kc;
  push t.free kc

let all t = Atomic.get t.all
