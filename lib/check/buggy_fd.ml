(* TEST-ONLY copy of Fd_core's refcount -- the part of the fd table
   that lookups walk without the table lock -- with a deliberately
   seeded bug pair: BOTH refcount walks are get-then-set instead of
   CAS / fetch-and-add.

   [release]: two ULPs sharing a host fd (rc = 2) both close their
   descriptor; both read 2, both store 1 -- nobody observes the 1 -> 0
   crossing and the host fd leaks (destroy never runs).  [retain]: the
   guard that refuses to resurrect a dead handle is gone, so a lookup
   racing the last release can read rc = 0, store 1 and pin a handle
   whose host fd was already destroyed -- its own release destroys it a
   second time (the classic double-close, by then possibly someone
   else's recycled fd).

   The faithful Fd_core uses a CAS loop that refuses n <= 0 for retain
   and a fetch-and-add for release, so exactly one caller sees the
   crossing.  test_check asserts the checker reports a bug on THIS
   module for two racing releases and for a retain racing the last
   release, while the faithful copy survives the exact failing
   schedules; ulplint's atomic-get-then-set flags both walks.  Never
   use outside tests. *)

type 'a res = { v : 'a; rc : int Atomic.t; destroy : 'a -> unit }

let resource ~destroy v = { v; rc = Atomic.make 1; destroy }
let value r = r.v
let refs r = Atomic.get r.rc

(* BUG: plain get-then-set -- no dead-handle guard, lost increments. *)
let retain r =
  let n = Atomic.get r.rc in
  Atomic.set r.rc (n + 1);
  true

(* BUG: plain get-then-set -- two racing releasers both read 2, both
   store 1; the 1 -> 0 crossing evaporates and destroy never runs. *)
let release r =
  let n = Atomic.get r.rc in
  Atomic.set r.rc (n - 1);
  if n = 1 then r.destroy r.v
