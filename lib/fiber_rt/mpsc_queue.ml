(* Lock-free multi-producer queue (Treiber stack with batch reversal):
   any OS thread or domain pushes with a CAS; a consumer takes the whole
   batch with one [exchange] and receives it in FIFO order.  Because the
   take is a single atomic exchange the structure is multi-consumer safe
   too, though the fiber engine's inboxes each have one consumer, their
   worker.

   Instrumentation seam (see Atomic_intf): this file is compiled a
   second time inside lib/check against a traced [Atomic] model, so it
   must confine its synchronization to the TRACED_ATOMIC primitives. *)

type 'a t = { head : 'a list Atomic.t }

let create () = { head = Atomic.make [] }

let rec push t x =
  let old = Atomic.get t.head in
  if not (Atomic.compare_and_set t.head old (x :: old)) then push t x

let pop_all t =
  match Atomic.get t.head with
  | [] -> [] (* common fast path: no CAS traffic when idle *)
  | _ -> List.rev (Atomic.exchange t.head [])

let is_empty t = Atomic.get t.head == []

let length t = List.length (Atomic.get t.head)
