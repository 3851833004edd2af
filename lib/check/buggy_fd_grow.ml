(* TEST-ONLY variant of Fd_core with a deliberately seeded growth bug:
   [grow] copies each slot's CONTENTS into a fresh atomic instead of
   moving the slot atomic itself into the larger array.

   A close, claim or dup2 that loaded the old array before the new one
   was published still lands on the old atomic.  Once the copy has read
   that slot, the write is invisible through the new array: a closed
   descriptor comes back (its later close releases the resource a second
   time), an allocated one vanishes (its resource never gets destroyed),
   a dup2 target keeps its displaced occupant.  The faithful [grow]
   reuses the slot atomics, so old and new array name the same slot.

   Everything else is Fd_core itself; [alloc], [dup] and [dup2] are
   restated only because they call [grow].  test_check asserts that
   the checker reports a bug on THIS module for a grow racing a close,
   an alloc and a dup2, while the faithful copy passes the same
   schedules.  Never use outside tests. *)

include Fd_core

let rec grow t i =
  let a = Atomic.get t.slots in
  let n = Array.length a in
  if i < n then a
  else
    let rec size m = if m > i then m else size (2 * m) in
    let m = min t.cap (size (2 * n)) in
    (* THE SEEDED BUG: a snapshot of each slot, not the slot *)
    let b =
      Array.init m (fun j ->
          Atomic.make (if j < n then Atomic.get a.(j) else None))
    in
    if Atomic.compare_and_set t.slots a b then b else grow t i

let alloc t r =
  let rec go a i =
    if i < Array.length a then
      let s = a.(i) in
      match Atomic.get s with
      | None ->
          if Atomic.compare_and_set s None (Some r) then Some i else go a i
      | Some _ -> go a (i + 1)
    else if i >= t.cap then None
    else go (grow t i) i
  in
  go (Atomic.get t.slots) 0

let dup t i =
  match get t i with
  | None -> Error `Badf
  | Some r -> (
      if not (retain r) then Error `Badf
      else
        match alloc t r with
        | Some j -> Ok j
        | None ->
            release r;
            Error `Mfile)

let dup2 t ~src ~dst =
  if dst < 0 || dst >= t.cap then Error `Badf
  else
    match get t src with
    | None -> Error `Badf
    | Some r ->
        if src = dst then Ok ()
        else if not (retain r) then Error `Badf
        else begin
          (match Atomic.exchange (grow t dst).(dst) (Some r) with
          | None -> ()
          | Some old -> release old);
          Ok ()
        end
