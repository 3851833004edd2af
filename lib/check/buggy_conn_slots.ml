(* TEST-ONLY copy of Conn_slots with a deliberately seeded bug: the
   check-then-act [reserve] that Tcp_server's accept loop had before the
   bounded CAS.  It reads [active < cap], then takes the slot with a
   separate fetch-and-add.

   Two reservers that both read the count
   after a retire freed the last slot both pass the check, and both add
   one: at [max_conns = 1] two connections are live at once.  The
   faithful [reserve] moves the count from n to n+1 in one CAS, so the
   loser re-reads the count and sees the cap.

   test_check asserts that the checker reports a bug on THIS module for
   two accept loops racing a retire, while the faithful copy passes the
   same schedules.  Never use outside tests. *)

let reserve active ~cap =
  (* THE SEEDED BUG: the comparison and the increment are two steps *)
  if Atomic.get active < cap then Atomic.fetch_and_add active 1 + 1 else 0

let release active = Atomic.fetch_and_add active (-1) - 1
