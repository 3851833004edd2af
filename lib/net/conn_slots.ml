(* The [max_conns] cap of [Tcp_server]: a counter of taken connection
   slots that only ever moves from n to n+1 while n < cap.  The one
   accept loop reserves while retiring connections release from any
   worker; the bounded CAS keeps the cap whatever races it, where
   reading the count, comparing, and then adding one (check-then-act)
   holds only while there is a single reserver.  lib/check recompiles
   this file and model-checks two reservers racing a retire. *)

let rec reserve active ~cap =
  let n = Atomic.get active in
  if n >= cap then 0
  else if Atomic.compare_and_set active n (n + 1) then n + 1
  else reserve active ~cap

let release active = Atomic.fetch_and_add active (-1) - 1
