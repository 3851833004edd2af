(* TEST-ONLY copies of the original KC, each with one deliberately
   seeded bug.  Both leave a thread asleep with nobody to wake it, which
   the interleaving checker reports as a deadlock:

   - [Unpark_first.submit]: the submitter unparks the KC before it
     stores the section.  The KC can spend that permit on a park that
     finds the slot still empty, loop, and park again; the store then
     lands with nobody left to wake the KC.

   - [Drops_owed.serve]: the KC's park forgets the wake it owes instead
     of sending it.  The worker whose coupled section the KC just
     completed sleeps on with its result ready.

   test_check asserts that the checker catches each twin while the
   faithful [Kc] passes the same scenarios exhaustively.  Never use
   outside tests. *)

module Unpark_first = struct
  include Kc

  let submit t section =
    if Atomic.get t.stopping then invalid_arg "Kc.submit: the KC is stopping";
    (* THE SEEDED BUG: the faithful submit stores, then unparks *)
    Parker.unpark t.parker;
    if not (Atomic.compare_and_set t.slot None (Some section)) then
      invalid_arg "Kc.submit: a section is already pending"
end

module Drops_owed = struct
  include Kc

  let rec serve t =
    let stopping = Atomic.get t.stopping in
    match Atomic.exchange t.slot None with
    | Some section ->
        Parker.flush ();
        section ();
        serve t
    | None when stopping -> Parker.flush ()
    | None ->
        (* THE SEEDED BUG: the faithful park sends the owed wake once
           the runtime lock is free *)
        Parker.drop_owed ();
        Parker.sleep t.parker;
        serve t
end
