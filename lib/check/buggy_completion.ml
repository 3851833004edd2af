(* TEST-ONLY copy of Completion with a deliberately seeded bug: [finish]
   reads the joiner list with a plain [get] and then stores [Done v]
   with a plain [set], instead of snatching the list with one
   [exchange].  A joiner whose CAS lands BETWEEN the read and the store
   is silently overwritten -- its wake function never runs, so the
   joiner sleeps forever (a lost wake-up, observed by the checker as a
   deadlock).  On a ULP's exit-status cell that joiner is a parked
   waitpid: the parent never learns its child exited.

   test_check asserts that the checker reports a bug on THIS module for
   the finish-vs-join race and for waitpid-vs-exit, while the faithful
   copy passes the same scenarios.  Never use outside tests. *)

type 'a state =
  | Running
  | Done of 'a
  | Joiners of (unit -> unit) list (* newest first *)

type 'a t = 'a state Atomic.t

let create () = Atomic.make Running

let is_done t = match Atomic.get t with Done _ -> true | _ -> false
let status t = match Atomic.get t with Done v -> Some v | _ -> None

let rec add_joiner t wake =
  match Atomic.get t with
  | Done _ -> wake ()
  | Running as cur ->
      if not (Atomic.compare_and_set t cur (Joiners [ wake ])) then
        add_joiner t wake
  | Joiners ws as cur ->
      if not (Atomic.compare_and_set t cur (Joiners (wake :: ws))) then
        add_joiner t wake

let finish t v =
  (* THE SEEDED BUG: the correct code snatches the joiner list with
     [Atomic.exchange t (Done v)] in one atomic step.  Read-then-store
     opens a window for a joiner's CAS to register a wake that the
     store then discards. *)
  let seen = Atomic.get t in
  Atomic.set t (Done v);
  match seen with
  | Joiners ws -> List.iter (fun wake -> wake ()) ws
  | Running | Done _ -> ()
