(* Lock-free one-shot completion cell with a payload: one atomic cell
   per fiber (unit), per Scope (unit) and per ULP (its exit status),
   instead of a Mutex.t each.

   The cell walks a tiny CAS-driven state machine:

     Running --------------------------> Done v      (finish v, no joiners)
        |  \
        |   +-- CAS --> Joiners [w]                  (first join arrives)
        |                  |  CAS --> Joiners [w';w] (more joiners pile on)
        +-----------------+---- exchange Done v ---- (finish wakes them all)

   [finish] publishes [Done v] with a single [Atomic.exchange], which
   atomically snatches whatever joiner list accumulated: a joiner's CAS
   either lands before the exchange (the finisher sees it and calls its
   wake) or loses to it (the CAS fails against Done, the joiner re-reads
   and wakes itself).  Either way every wake function runs exactly once,
   and no path locks or allocates beyond the consed list and the
   [Done v] block.  A get-then-set finish publishes over a stale list
   and strands the joiner that registered in the window (the seeded
   lib/check/buggy_completion.ml twin).

   OCaml [Atomic] is sequentially consistent, so a joiner that observes
   Done also observes every write the finisher made before it -- the
   payload included.

   Instrumentation seam (see Atomic_intf): this file is compiled a
   second time inside lib/check against a traced [Atomic] model, so it
   must confine its synchronization to the TRACED_ATOMIC primitives --
   no Mutex, Domain or raw spin loops here. *)

type 'a state =
  | Running
  | Done of 'a
  | Joiners of (unit -> unit) list (* newest first *)

type 'a t = 'a state Atomic.t

let create () = Atomic.make Running

let is_done t = match Atomic.get t with Done _ -> true | _ -> false
let status t = match Atomic.get t with Done v -> Some v | _ -> None

(* Register [wake] to run when [finish] fires; runs it immediately if
   the cell already finished.  Callable from any domain. *)
let rec add_joiner t wake =
  match Atomic.get t with
  | Done _ -> wake ()
  | Running as cur ->
      if not (Atomic.compare_and_set t cur (Joiners [ wake ])) then
        add_joiner t wake
  | Joiners ws as cur ->
      if not (Atomic.compare_and_set t cur (Joiners (wake :: ws))) then
        add_joiner t wake

(* Publish [v] and wake every registered joiner exactly once.  Call
   once per cell: a fiber, a scope and a ULP each finish once.  The
   result says whether any joiner had registered: the same exchange
   that wakes them decides it, so no joiner can slip in between. *)
let finish_woke t v =
  match Atomic.exchange t (Done v) with
  | Joiners ws ->
      List.iter (fun wake -> wake ()) ws;
      true
  | Running | Done _ -> false

let finish t v = ignore (finish_woke t v)
