(* The pool of a run's original KCs (the executors of [Blt_rt]).

   A fiber's first coupled section leases a KC: a free one if the free
   list has any, else a fresh one, registered in [all] so the run can
   shut it down at the end.  The fiber keeps it until it finishes; then
   [recycle] pushes it straight back on the free list.  That is safe
   without asking the KC whether it is idle: [Blt_rt.coupled] is the
   only submitter, a fiber finishes only after every coupled section
   it made has woken it, and the KC's FIFO mailbox queues the next
   owner's first section behind the tail of the job that did the
   waking.

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

let recycle t kc = push t.free kc

let all t = Atomic.get t.all
