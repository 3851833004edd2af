(* Fixture: a reasoned waiver on the check-then-act shape. *)

let take_ticket c ~limit =
  if Atomic.get c < limit then begin
    (* ulplint: allow atomic-check-then-faa -- fixture: c has a single writer in this model *)
    Atomic.incr c;
    true
  end
  else false
