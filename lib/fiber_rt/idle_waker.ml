(* The idle-worker Treiber stack, factored out of [Fiber] so the exact
   production code can be recompiled against lib/check's traced atomics
   and model-checked (every cross-thread wake rides on [take]: a wake
   sent to its home worker's inbox un-parks that worker).

   A parked worker pushes its id; whoever removes an id -- [pop] for
   "wake any one", [take wid] for a targeted wake aimed at one worker's
   private inbox, [drain] on stop -- owes that worker exactly one wake
   token.  A worker cancelling its own parking calls [take] on itself:
   [true] means it removed itself and no token is coming; [false] means
   a waker got there first and its token must be consumed, not leaked.
   Every transition is a CAS retry loop on the whole list -- the
   get-then-set shape (read, compute, plain write) loses concurrent
   removals and resurrects already-woken ids, which is exactly the
   seeded bug lib/check's buggy twin carries. *)

type t = int list Atomic.t

let create () = Atomic.make []

let rec push t wid =
  let cur = Atomic.get t in
  if not (Atomic.compare_and_set t cur (wid :: cur)) then push t wid

(* Remove [wid] if present: [true] = this call removed it (a token is
   owed to -- or being withheld by -- the caller); [false] = not
   listed, someone else already popped it. *)
let rec take t wid =
  let cur = Atomic.get t in
  if List.mem wid cur then
    if Atomic.compare_and_set t cur (List.filter (fun w -> w <> wid) cur)
    then true
    else take t wid
  else false

(* Pop the most recently parked id, if any.  The common nobody-idle
   path is a single atomic read. *)
let rec pop t =
  match Atomic.get t with
  | [] -> None
  | wid :: rest as cur ->
      if Atomic.compare_and_set t cur rest then Some wid else pop t

let drain t = Atomic.exchange t []
let snapshot t = Atomic.get t
