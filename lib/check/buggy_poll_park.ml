(* TEST-ONLY copies of the park-in-poller handshake, each with one
   deliberately seeded bug.  Both lose a wakeup, which the interleaving
   checker reports as a deadlock:

   - [Late_flag.poll]: the parker publishes [in_poller] after its last
     re-check of the token.  A waker landing between the two posts its
     token, finds the flag clear and does not poke; the parker then
     blocks in the poller with a wake owed and nobody to end the wait.

   - [No_hand_off.leave]: a turn holder leaves without handing the turn
     on.  A peer that parked on its condvar while the turn was held
     sleeps on with its fiber's watch armed and nobody polling it.

   test_check asserts that the checker catches each twin while the
   faithful [Poll_park] passes the same scenarios exhaustively.  Never
   use outside tests. *)

module Late_flag = struct
  include Poll_park

  let poll s turn =
    turn ~block:(fun () ->
        let block = not (Atomic.get s.token) in
        (* THE SEEDED BUG: the faithful code publishes the flag before
           the turn, so before this re-check *)
        Atomic.set s.in_poller true;
        block);
    Atomic.set s.in_poller false
end

module No_hand_off = struct
  include Poll_park

  (* THE SEEDED BUG: the faithful code reads [pending] after freeing the
     turn and wakes a parked peer to take it *)
  let leave t ~pending:_ ~hand_off:_ = Atomic.incr t
end
