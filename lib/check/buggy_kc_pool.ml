(* TEST-ONLY copy of Kc_pool with a deliberately seeded bug: [pop]
   reads the free list with a plain [get] and stores its tail with a
   plain [set], instead of swinging the head by CAS.

   Two fibers leasing at once can both read the same head, both store
   its tail and both walk away with the same KC: one original KC leased
   to two live fibers, whose coupled sections then interleave on one
   OS thread.  The faithful [pop] retries when its CAS loses, so each
   free KC goes to exactly one lease.

   test_check asserts that the checker reports a bug on THIS module for
   an owner exiting while two fibers lease, while the faithful copy
   passes the same schedules.  Never use outside tests. *)

type 'kc t = { free : 'kc list Atomic.t; all : 'kc list Atomic.t }

let create () = { free = Atomic.make []; all = Atomic.make [] }

let rec push stack kc =
  let l = Atomic.get stack in
  if not (Atomic.compare_and_set stack l (kc :: l)) then push stack kc

(* THE SEEDED BUG: get-then-set -- a pop that lands between the read
   and the store takes the same head. *)
let pop stack =
  match Atomic.get stack with
  | [] -> None
  | kc :: rest ->
      Atomic.set stack rest;
      Some kc

let lease t ~create =
  match pop t.free with
  | Some kc -> kc
  | None ->
      let kc = create () in
      push t.all kc;
      kc

let recycle t kc = push t.free kc

let all t = Atomic.get t.all
