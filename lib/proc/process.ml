(* User-level processes on the fiber runtime (substrate S3): the
   paper's core object -- a process with a private fd namespace, a PID
   and signal state inside one shared address space -- realized as a
   Scope-rooted fiber tree.  The S1 simulator (lib/core/ulp.ml) models
   the same object on simulated kernel contexts; this is the production
   twin on real domains (DESIGN.md section 5h).

   One ULP is:

   - a private fd table (Fd_core): descriptors resolve through the
     owning ULP's slots, host fds are refcounted so sharing never
     double-closes;
   - a vpid in a lock-free process table (Proc_table), with
     parent/child links for wait semantics;
   - an exit-status cell (a [status Completion.t]) that parked waitpid
     fibers hang their wakes on;
   - a pending-signal mask plus per-signal handlers, delivered at
     cancellation points ([check]); the default disposition terminates
     the whole fiber tree through the Scope's first-failure-wins
     cancellation, exactly like a process-directed fatal signal.  The
     handlers are one immutable array behind one atomic, shared and
     empty until the first [on_signal], so a ULP that installs none
     pays one atomic for them, like its fd table pays only for the
     slots it has grown.

   Lifecycle protocol (all lock-free, all exercised by lib/check and
   the qcheck models):

     spawn:   vpid = fetch_and_add; table.add; parent.children CAS-cons
              (rebuilt without reaped entries once those outnumber the
              live ones); fiber runs body inside a fresh Scope
     exit:    close_all fds; re-parent live children to the root ULP
              (adopted := true); Completion.finish publishes the status
              and wakes waiters; an adopted (orphan) zombie reaps
              itself -- the root is init, it never waits
     waitpid: find the child in the vpid table and check its parent;
              park on its wait cell; claim the zombie by CAS (claimed:
              exactly one reaper) and drop it from the table
     kill:    set the pending bit; no handler installed -> Scope.fail
              with Killed (first failure wins, tree cancels); handler
              installed -> delivered at the target's next [check]

   The orphan handshake is the usual store/load pairing: the exiting
   child publishes its status THEN reads [adopted]; the exiting parent
   stores [adopted] THEN reads the status -- at least one side observes
   both and the zombie is reaped by exactly one (the [claimed] CAS). *)

module Fiber = Fiber_rt.Fiber
module Scope = Fiber_rt.Scope
module Completion = Fiber_rt.Completion

exception Proc_exit of int
(** Raised by {!exit}; absorbed by the ULP's root fiber. *)

exception Killed of int
(** The default signal disposition, recorded as the Scope failure. *)

type status = Exited of int | Signaled of int

let sigint = 2
let sigkill = 9
let sigusr1 = 10
let sigusr2 = 12
let sigterm = 15
let max_signal = 31

type t = {
  vpid : int;
  world : world;
  parent : int Atomic.t; (* re-written once if orphaned to the root *)
  adopted : bool Atomic.t; (* re-parented: root auto-reaps it *)
  claimed : bool Atomic.t; (* zombie reaped exactly once *)
  fds : Unix.file_descr Fd_core.table;
  scope : Scope.t; (* the ULP's fiber tree *)
  waitc : status Completion.t;
  pending : int Atomic.t; (* signal bitmask, bit (1 lsl signum) *)
  handlers : (int -> unit) option array Atomic.t; (* copy-on-write *)
  children : brood Atomic.t;
  reaps : int Atomic.t; (* children claimed so far, by any reaper *)
}

(* The children list and its bookkeeping, replaced by one CAS.  The
   reaped entries still listed number about [reaps - reaps_at]. *)
and brood = {
  kids : t list;
  listed : int; (* List.length kids *)
  reaps_at : int; (* [reaps] when [kids] was last rebuilt *)
}

and world = {
  table : t Proc_table.t;
  next_vpid : int Atomic.t;
  fd_capacity : int;
  mutable root_ulp : t option; (* set once by boot, before publication *)
}

(* Every ULP starts out sharing this one; [on_signal] replaces it. *)
let no_handlers : (int -> unit) option array = [||]

let make_proc w ~vpid ~parent_vpid ~fd_capacity =
  {
    vpid;
    world = w;
    parent = Atomic.make parent_vpid;
    adopted = Atomic.make false;
    claimed = Atomic.make false;
    fds = Fd_core.create ~capacity:fd_capacity;
    scope = Scope.create ();
    waitc = Completion.create ();
    pending = Atomic.make 0;
    handlers = Atomic.make no_handlers;
    children = Atomic.make { kids = []; listed = 0; reaps_at = 0 };
    reaps = Atomic.make 0;
  }

let boot ?(fd_capacity = 256) () =
  let w =
    {
      table = Proc_table.create ();
      next_vpid = Atomic.make 1;
      fd_capacity;
      root_ulp = None;
    }
  in
  let vpid = Atomic.fetch_and_add w.next_vpid 1 in
  let r = make_proc w ~vpid ~parent_vpid:0 ~fd_capacity in
  Proc_table.add w.table vpid r;
  w.root_ulp <- Some r;
  w

let root w =
  match w.root_ulp with
  | Some r -> r
  | None -> invalid_arg "Proc.root: world not booted"

let world u = u.world
let fds u = u.fds
let scope u = u.scope
let getpid u = u.vpid
let getppid u = Atomic.get u.parent
let status_of u = Completion.status u.waitc
let live_procs w = Proc_table.length w.table
let find w vpid = Proc_table.find w.table vpid

let exit (_ : t) code = raise (Proc_exit code)

let handler hs s = if s < Array.length hs then hs.(s) else None

let check_signals u =
  let bits = Atomic.exchange u.pending 0 in
  if bits <> 0 then
    let hs = Atomic.get u.handlers in
    (* ulplint: allow missed-cancellation-point -- this loop IS the delivery step Proc.check runs at a cancellation point: it drains one exchanged max_signal-bit mask (bounded) and must not recursively re-enter check *)
    for s = 1 to max_signal do
      if bits land (1 lsl s) <> 0 then
        match handler hs s with
        | Some h when s <> sigkill -> h s
        | _ ->
            (* default disposition: terminate the tree.  [fail] is
               first-wins and idempotent, so re-asserting what [kill]
               already recorded is harmless. *)
            Scope.fail u.scope (Killed s)
    done

let check u =
  check_signals u;
  Scope.check u.scope

let pending u = Atomic.get u.pending

let on_signal u ~signum h =
  if signum < 1 || signum > max_signal then
    invalid_arg "Proc.on_signal: bad signal number";
  if signum = sigkill then invalid_arg "Proc.on_signal: SIGKILL is uncatchable";
  (* sigaction is rare: copy, update, publish; retry on a racing one *)
  let rec install () =
    let hs = Atomic.get u.handlers in
    let next = Array.make (max_signal + 1) None in
    Array.blit hs 0 next 0 (Array.length hs);
    next.(signum) <- h;
    if not (Atomic.compare_and_set u.handlers hs next) then install ()
  in
  install ()

let rec set_pending u signum =
  let cur = Atomic.get u.pending in
  let next = cur lor (1 lsl signum) in
  if cur <> next && not (Atomic.compare_and_set u.pending cur next) then
    set_pending u signum

let kill w ~vpid signum =
  if signum < 1 || signum > max_signal then
    invalid_arg "Proc.kill: bad signal number";
  match Proc_table.find w.table vpid with
  | None -> Error `Esrch
  | Some p ->
      set_pending p signum;
      (match handler (Atomic.get p.handlers) signum with
      | Some _ when signum <> sigkill -> () (* delivered at p's next check *)
      | _ -> Scope.fail p.scope (Killed signum));
      Ok ()

(* ---------- the child/zombie bookkeeping ---------- *)

(* Cons [c] onto [parent]'s children.  A reaped child stays listed
   until an [add_child] finds the reaped entries outnumbering the live
   ones and rebuilds the list without them: a rebuild walks fewer than
   twice the entries reaped since the last one, so a reap costs O(1)
   amortized and a reaped ULP becomes garbage at the next rebuild.
   A reaper bumps [reaps] just after its claim, so the estimate may be
   off by the reaps racing a rebuild; the rebuild after resets it. *)
let rec add_child parent c =
  let b = Atomic.get parent.children in
  let reaps = Atomic.get parent.reaps in
  let next =
    if 2 * (reaps - b.reaps_at) <= b.listed then
      { b with kids = c :: b.kids; listed = b.listed + 1 }
    else
      let live = List.filter (fun c -> not (Atomic.get c.claimed)) b.kids in
      { kids = c :: live; listed = List.length live + 1; reaps_at = reaps }
  in
  if not (Atomic.compare_and_set parent.children b next) then
    add_child parent c

(* Claim the zombie: exactly one reaper drops it from the table and
   counts it against its parent's list. *)
let try_reap c =
  if Atomic.compare_and_set c.claimed false true then begin
    let table = c.world.table in
    ignore (Proc_table.remove table c.vpid);
    (match Proc_table.find table (Atomic.get c.parent) with
    | Some p -> Atomic.incr p.reaps
    | None -> ());
    true
  end
  else false

(* O(1): the vpid table, not the parent's list, finds the child. *)
let find_child parent vpid =
  match Proc_table.find parent.world.table vpid with
  | Some c when Atomic.get c.parent = parent.vpid && not (Atomic.get c.claimed)
    ->
      Some c
  | _ -> None

(* An exited parent's list still names the children it handed to the
   root: those now answer to the root, not to it. *)
let children parent =
  List.filter_map
    (fun c ->
      if Atomic.get c.claimed || Atomic.get c.parent <> parent.vpid then None
      else Some c.vpid)
    (Atomic.get parent.children).kids

let do_exit u st =
  ignore (Fd_core.close_all u.fds);
  (* Orphan the children to the root ULP (init): live ones will
     self-reap when they exit; already-dead ones are reaped here.  The
     adopted/zombie handshake guarantees at least one side sees both
     flags, and the [claimed] CAS that exactly one acts. *)
  let rt = root u.world in
  List.iter
    (fun c ->
      if not (Atomic.get c.claimed) then begin
        Atomic.set c.parent rt.vpid;
        Atomic.set c.adopted true;
        add_child rt c;
        if Completion.is_done c.waitc then ignore (try_reap c)
      end)
    (Atomic.get u.children).kids;
  Completion.finish u.waitc st;
  if Atomic.get u.adopted then ignore (try_reap u)

let spawn ?worker ?fd_capacity ~parent body =
  let w = parent.world in
  let vpid = Atomic.fetch_and_add w.next_vpid 1 in
  let fd_capacity = Option.value fd_capacity ~default:w.fd_capacity in
  let u = make_proc w ~vpid ~parent_vpid:parent.vpid ~fd_capacity in
  Proc_table.add w.table vpid u;
  add_child parent u;
  let run () =
    let normal =
      match body u with
      | () -> 0
      | exception Proc_exit n ->
          (* exit() kills the whole ULP: cancel any sibling fibers *)
          Scope.fail u.scope (Proc_exit n);
          n
      | exception Scope.Cancelled -> 0
      | exception e ->
          Scope.fail u.scope e;
          0
    in
    (* wait for every fiber of the ULP's tree, then settle the status:
       a recorded failure (exit, fatal signal, uncaught exception from
       any fiber) outranks the body's plain return *)
    Scope.await u.scope;
    let st =
      match Scope.failure u.scope with
      | Some (Proc_exit n) -> Exited n
      | Some (Killed s) -> Signaled s
      | Some _ -> Exited 125 (* uncaught exception: abnormal exit *)
      | None ->
          if Scope.is_cancelled u.scope then Signaled sigkill
          else Exited normal
    in
    do_exit u st
  in
  (match worker with
  | Some wk -> ignore (Fiber.spawn_on ~worker:wk run)
  | None -> ignore (Fiber.spawn run));
  u

let spawn_fiber ?worker u body = Scope.spawn ?worker u.scope body

(* ---------- wait semantics ---------- *)

let try_waitpid ~parent ~vpid =
  match find_child parent vpid with
  | None -> Error `Echild
  | Some c -> (
      match Completion.status c.waitc with
      | None -> Ok None
      | Some st -> if try_reap c then Ok (Some st) else Error `Echild)

let waitpid ~parent ~vpid =
  match find_child parent vpid with
  | None -> Error `Echild
  | Some c -> (
      (* park the calling FIBER (never the domain) until the child
         exits; the wake rides the status cell's joiner list and is
         routed back to the worker that parked us *)
      if not (Completion.is_done c.waitc) then
        Fiber.suspend_token (fun tok ->
            let home = Fiber.worker_index () in
            Completion.add_joiner c.waitc (fun () ->
                ignore (Fiber.Wake.fire_to ?worker:home tok)));
      match Completion.status c.waitc with
      | Some st -> if try_reap c then Ok st else Error `Echild
      | None -> assert false (* the cell finishes before waiters run *))
