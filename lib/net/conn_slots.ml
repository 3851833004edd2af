(* The [max_conns] cap of [Tcp_server]: a counter of taken connection
   slots that only ever moves from n to n+1 while n < cap.  Each shard
   has its own accept loop, so two loops can race for the last slot;
   the bounded CAS lets exactly one of them have it.  Reading the count,
   comparing, and then adding one (check-then-act) would let both pass
   the check and breach the cap.  lib/check recompiles this file and
   model-checks two accept loops racing a retire. *)

let rec reserve active ~cap =
  let n = Atomic.get active in
  if n >= cap then 0
  else if Atomic.compare_and_set active n (n + 1) then n + 1
  else reserve active ~cap

let release active = Atomic.fetch_and_add active (-1) - 1
