(* The pool of a run's original KCs (the executors of [Blt_rt]).

   A fiber's first coupled section leases a KC: a free one if the free
   list has any, else a fresh one, registered in [all] so the run can
   shut it down at the end.  The fiber keeps it until it finishes; then
   [recycle] hands it back, never while a job the old owner queued is
   still pending: putting a busy KC back at fiber exit would let the
   dead owner's job run under the next lease.  A KC with work queued
   or running gets one last job that resets it and pushes it on the
   free list, so FIFO order puts it back behind every earlier job.  An
   idle KC -- the common case: the owner's last coupled section has
   returned -- is reset and pushed at once, which spares the KC thread
   a wake-up and lets the very next lease reuse it.

   Both lists are Treiber stacks of immutable cells: a CAS compares the
   physical cell, and a cell is never reused, so a pop cannot suffer
   ABA.  Polymorphic in the KC so lib/check recompiles this exact file
   over simulated KCs. *)

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

let recycle t ~reset_if_idle ~submit ~reset kc =
  if reset_if_idle kc then push t.free kc
  else
    submit kc (fun () ->
        reset kc;
        push t.free kc)

let all t = Atomic.get t.all
