(* TEST-ONLY twin of Atomic_deque with a deliberately seeded bug: the
   last-element race in [pop] reads [top] with a plain load instead of
   claiming it with a CAS.  Two threads (the owner popping and a thief
   stealing) can now both decide they won the final element, so the same
   value is claimed twice.

   This module exists to prove the checker finds real interleaving bugs:
   test_check asserts that exploring the size-1 pop-vs-steal scenario on
   THIS deque reports a failure with a replayable schedule trace, while
   the faithful copy passes.  Never use outside tests.

   The twin is the lib/check copy of Atomic_deque with [pop] and
   [steal_batch] replaced; [push], [steal] and growth are the faithful
   code. *)

include Atomic_deque

let pop t =
  let b = Atomic.get t.bottom - 1 in
  let a = Atomic.get t.buf in
  Atomic.set t.bottom b;
  let tp = Atomic.get t.top in
  if b < tp then begin
    Atomic.set t.bottom tp;
    None
  end
  else if b > tp then begin
    let x = a.slots.(b land a.mask) in
    a.slots.(b land a.mask) <- t.dummy;
    Some x
  end
  else begin
    let x = a.slots.(b land a.mask) in
    (* THE SEEDED BUG: the correct code claims the last element with
       [compare_and_set t.top tp (tp + 1)] so it races the thieves'
       CAS.  A plain read-then-write lets a thief's CAS slip between
       the read and the write: both sides claim the element. *)
    let won = Atomic.get t.top = tp in
    if won then Atomic.set t.top (tp + 1);
    if won then a.slots.(b land a.mask) <- t.dummy;
    Atomic.set t.bottom (tp + 1);
    if won then Some x else None
  end

(* A SECOND SEEDED BUG: steal-half with one wide CAS [top -> top+k].
   Looks plausible -- the CAS "claims the range atomically" -- but the
   owner's [pop] free-takes slot [bottom-1] WITHOUT a CAS whenever its
   post-decrement [top] read shows more than one element, so the range
   the thief read can overlap slots the owner already consumed: the
   same element is claimed twice.  The shipped Atomic_deque.steal_batch
   claims one CAS per element precisely to dodge this; test_check
   asserts the checker catches the double-claim here. *)
let steal_batch ?(max_batch = 16) t =
  let tp = Atomic.get t.top in
  let b = Atomic.get t.bottom in
  let n = b - tp in
  if n <= 0 then []
  else begin
    let k = min ((n + 1) / 2) max_batch in
    let a = Atomic.get t.buf in
    let rec read i acc =
      if i < 0 then acc else read (i - 1) (a.slots.((tp + i) land a.mask) :: acc)
    in
    let batch = read (k - 1) [] in
    if Atomic.compare_and_set t.top tp (tp + k) then batch else []
  end
