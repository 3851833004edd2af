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
   - a place in its world's process tree: a vpid, a parent, its
     children, an exit status and the wakes of the waitpid fibers
     parked on it;
   - a pending-signal mask plus per-signal handlers, delivered at
     cancellation points ([check]); the default disposition terminates
     the whole fiber tree through the Scope's first-failure-wins
     cancellation, exactly like a process-directed fatal signal.  The
     handlers are one immutable array behind one atomic, shared and
     empty until the first [on_signal], so a ULP that installs none
     pays one atomic for them, like its fd table pays only for the
     slots it has grown.

   The process tree -- the vpid table, and every ULP's parent, adopted
   flag, status, waiters and children -- sits under one lock per world, as Linux keeps fork, exit and wait under one
   tasklist_lock.  Spawn, exit and reap happen once per ULP, so each is
   one short critical section: no syscall, no spawn, no wake and no
   park inside it.  Fds are closed before the lock is taken, and the
   parked waiters are woken after it is released.

     spawn:   take the next vpid and build the ULP; under the lock,
              refuse an exited parent, enter the table and the
              parent's children; then the fiber runs the body inside
              a fresh Scope
     exit:    shut the fd table; under the lock, hand the live children
              to the root ULP (adopted := true), reap the zombie ones,
              publish the status and take the waiters; an adopted ULP
              nobody waits for reaps itself -- init does not wait for
              it, but a waiter that did park gets the status; wake the
              waiters
     waitpid: under the lock, find the child in the table and check its
              parent; reap a zombie at once, else queue a wake on the
              child and park; once woken, reap it unless another
              waiter already did
     kill:    look the target up under the lock; set the pending bit;
              no handler installed -> Scope.fail with Killed (first
              failure wins, tree cancels); handler installed ->
              delivered at the target's next [check] *)

module Fiber = Fiber_rt.Fiber
module Scope = Fiber_rt.Scope

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

(* The most descriptors a ULP may hold; its table grows up to it. *)
let fd_capacity = 256

(* vpids are consecutive ints: they spread over the buckets as they
   are, and an int key needs neither the generic hash nor compare *)
module Vtbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash v = v
end)

type t = {
  vpid : int;
  world : world;
  fds : Unix.file_descr Fd_core.table;
  scope : Scope.t; (* the ULP's fiber tree *)
  pending : int Atomic.t; (* signal bitmask, bit (1 lsl signum) *)
  handlers : (int -> unit) option array Atomic.t; (* copy-on-write *)
  (* the rest is the process tree, guarded by [world.lock] *)
  mutable parent : int; (* re-written once if orphaned to the root *)
  mutable adopted : bool; (* re-parented: reaps itself if nobody waits *)
  mutable status : status option;
  mutable waiters : (unit -> unit) list; (* wakes of parked waitpids *)
  mutable kids : t Vtbl.t option; (* made by the first spawn *)
}

and world = {
  lock : Mutex.t; (* the process-tree lock *)
  procs : t Vtbl.t; (* live and zombie ULPs by vpid *)
  (* taken before the lock, so a spawn builds its ULP outside it *)
  next_vpid : int Atomic.t;
  mutable root_ulp : t option; (* set once by boot, before publication *)
}

(* Every ULP starts out sharing this one; [on_signal] replaces it. *)
let no_handlers : (int -> unit) option array = [||]

let make_proc w ~vpid ~parent =
  {
    vpid;
    world = w;
    fds = Fd_core.create ~capacity:fd_capacity;
    scope = Scope.create ();
    pending = Atomic.make 0;
    handlers = Atomic.make no_handlers;
    parent;
    adopted = false;
    status = None;
    waiters = [];
    kids = None;
  }

(* A holder only updates a few tables, so a locker on another domain
   retries a little before it blocks in the OS: blocking costs both
   sides a futex round trip, longer than the holder takes. *)
(* ulplint: allow missed-cancellation-point -- bounded spin: at most n + 1 try_locks (32 from [locked]), then Mutex.lock blocks; a cancellation check here would let a signal interrupt a lock acquisition *)
let rec try_lock m n =
  Mutex.try_lock m
  || n > 0
     && begin
          Domain.cpu_relax ();
          try_lock m (n - 1)
        end

let locked w f =
  if not (try_lock w.lock 32) then
    (* ulplint: allow raw-mutex-in-fiber -- the process-tree lock, shared by spawns, exits and waits on every worker domain; held for a few table updates, never across a syscall, a wake or a park *)
    Mutex.lock w.lock;
  match f () with
  | v ->
      Mutex.unlock w.lock;
      v
  | exception e ->
      Mutex.unlock w.lock;
      raise e

let boot () =
  let w =
    {
      lock = Mutex.create ();
      procs = Vtbl.create 64;
      next_vpid = Atomic.make 2;
      root_ulp = None;
    }
  in
  let r = make_proc w ~vpid:1 ~parent:0 in
  Vtbl.replace w.procs 1 r;
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
let getppid u = locked u.world (fun () -> u.parent)
let status_of u = locked u.world (fun () -> u.status)
let live_procs w = locked w (fun () -> Vtbl.length w.procs)
let find w vpid = locked w (fun () -> Vtbl.find_opt w.procs vpid)

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
  match find w vpid with
  | None -> Error `Esrch
  | Some p ->
      set_pending p signum;
      (match handler (Atomic.get p.handlers) signum with
      | Some _ when signum <> sigkill -> () (* delivered at p's next check *)
      | _ -> Scope.fail p.scope (Killed signum));
      Ok ()

(* ---------- the process tree: every function here runs locked ---------- *)

let add_child parent c =
  let kids =
    match parent.kids with
    | Some kids -> kids
    | None ->
        let kids = Vtbl.create 8 in
        parent.kids <- Some kids;
        kids
  in
  Vtbl.replace kids c.vpid c

(* Drop the zombie [c] from the table and from its parent's children:
   it is garbage once its last handle goes. *)
let reap c =
  let procs = c.world.procs in
  Vtbl.remove procs c.vpid;
  match Vtbl.find_opt procs c.parent with
  | Some { kids = Some kids; _ } -> Vtbl.remove kids c.vpid
  | _ -> ()

(* [parent]'s unreaped child [vpid], reaped here if it is a zombie. *)
let reap_child parent vpid =
  match Vtbl.find_opt parent.world.procs vpid with
  | Some c when c.parent = parent.vpid -> (
      match c.status with
      | Some st ->
          reap c;
          `Reaped st
      | None -> `Running c)
  | _ -> `Echild

let children parent =
  locked parent.world (fun () ->
      match parent.kids with
      | None -> []
      | Some kids -> Vtbl.fold (fun vpid _ l -> vpid :: l) kids [])

let do_exit u st =
  ignore (Fd_core.shut u.fds);
  let w = u.world in
  let rt = root w in
  let waiters =
    locked w (fun () ->
        (* Orphan the children to the root ULP (init): the live ones
           reap themselves when they exit; the dead ones are reaped
           here. *)
        (match u.kids with
        | None -> ()
        | Some kids ->
            Vtbl.iter
              (fun _ c ->
                c.parent <- rt.vpid;
                c.adopted <- true;
                if c.status = None then add_child rt c
                else Vtbl.remove w.procs c.vpid)
              kids;
            u.kids <- None);
        u.status <- Some st;
        let waiters = u.waiters in
        u.waiters <- [];
        (* a parked waiter reaps the zombie itself; only an adopted ULP
           nobody waits for reaps itself *)
        if u.adopted && waiters = [] then reap u;
        waiters)
  in
  List.iter (fun wake -> wake ()) waiters

let spawn ~parent body =
  let w = parent.world in
  let vpid = Atomic.fetch_and_add w.next_vpid 1 in
  let u = make_proc w ~vpid ~parent:parent.vpid in
  locked w (fun () ->
      (* an exited parent handed its children on: a new one would
         have nobody to reap it *)
      if parent.status <> None then
        invalid_arg "Proc.spawn: the parent has exited";
      Vtbl.replace w.procs vpid u;
      add_child parent u);
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
  ignore (Fiber.spawn run);
  u

let spawn_fiber ?worker u body = Scope.spawn ?worker u.scope body

(* ---------- wait semantics ---------- *)

let try_waitpid ~parent ~vpid =
  match locked parent.world (fun () -> reap_child parent vpid) with
  | `Echild -> Error `Echild
  | `Reaped st -> Ok (Some st)
  | `Running _ -> Ok None

let waitpid ~parent ~vpid =
  let w = parent.world in
  match locked w (fun () -> reap_child parent vpid) with
  | `Echild -> Error `Echild
  | `Reaped st -> Ok st
  | `Running c -> (
      (* park the calling FIBER (never the domain) until the child
         exits; its exit fires the wake after unlocking, routed back to
         the worker that parked us *)
      Fiber.suspend_token (fun tok ->
          let wake () = ignore (Fiber.Wake.fire_home tok) in
          let parked =
            locked w (fun () ->
                match c.status with
                | None ->
                    c.waiters <- wake :: c.waiters;
                    true
                | Some _ -> false)
          in
          if not parked then wake ());
      (* the child may have been handed to the root meanwhile: the
         waiter that parked on it still reaps it *)
      locked w (fun () ->
          match c.status with
          | Some st when Vtbl.mem w.procs c.vpid ->
              reap c;
              Ok st
          | _ -> Error `Echild))
