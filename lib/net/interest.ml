(* The reactor's interest table: for each fd, its kernel registration,
   the watches parked on it and the edges no watch took.  One lock
   guards the table; the parked fiber's worker and the worker holding
   the reactor's turn both take it.

   An fd is registered once, edge-triggered: read at its first wait,
   write added by one modify the first time a writer parks on it.  The
   kernel reports each readiness rise once, so the table keeps in user
   space what a report leaves behind, as Go's netpoll and Tokio's
   ScheduledIo do.  [fire] wakes the watches the report satisfies; a
   reported direction with no watch parked sets that direction's
   pending bit.  The one race is an edge landing between a waiter's
   EAGAIN and its park: [arm] takes the same lock, and under it either
   consumes the pending bit (the waiter is woken at once and retries
   its syscall) or publishes its watch, which the next report finds.
   The check and the publication must share one critical section: a
   report between the two would set a bit nobody reads again.

   That holds only for a waiter whose syscall just returned EAGAIN: an
   edge is reported once, and a waiter that did not drain the fd may
   park on readiness already spent.  Such a waiter arms with [rearm]:
   it drops the pending bit and re-arms the registration with one
   modify, which reports the fd if it is ready now -- the
   level-triggered wait.

   The kernel drops the registration of a closed fd without a report
   and reuses the number at once, so the runtime closes a waited fd
   only after [forget] removed its registration and entry
   ([Fiber_io.close]).

   A watch holds its waiter's [wake]: the table calls it at most once,
   since a watch leaves the table when it is woken, and the waiter's
   own verdict CAS absorbs any other contender (a deadline).  A
   timed-out waiter [unwatch]es its watch, found by physical identity.
   After [close] (reactor shutdown) an [arm] wakes its own watch
   instead of registering it, so no fiber parks on a dead reactor.
   [busy] counts the fds with a watch: a worker leaving the turn reads
   it to decide whether to hand the turn on.  Wakes run after the lock
   is released: a wake fires the waiter's token, which must not run
   under the table lock.

   This module depends only on [Mutex] and [Hashtbl]: lib/check
   recompiles it against the traced Mutex, with [register] modelling
   the kernel's edge-triggered registration. *)

type dir = [ `R | `W ]
type watch = { dir : dir; wake : unit -> unit }

type entry = {
  mutable watches : watch list;
  mutable pending : int; (* directions reported while no watch took them *)
  mutable registered : int; (* the kernel's mask: 0 none, 1 read, 3 both *)
}

type t = {
  lock : Mutex.t;
  entries : (int, entry) Hashtbl.t; (* raw fd -> entry, until [forget] *)
  register : int -> was:int -> int -> bool; (* false = fd gone *)
  mutable closed : bool;
  mutable busy : int; (* entries with at least one watch *)
}

let bit = function `R -> 1 | `W -> 2

(* the registration a direction needs: read always, write once asked *)
let needs = function `R -> 1 | `W -> 3

let create ~register =
  {
    lock = Mutex.create ();
    entries = Hashtbl.create 64;
    register;
    closed = false;
    busy = 0;
  }

let locked t f x =
  (* ulplint: allow raw-mutex-in-fiber -- reactor handshake: the table is shared with the worker holding the reactor's turn; held for a list update and at most one epoll_ctl, never across a park *)
  Mutex.lock t.lock;
  match f x with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let wake_all ws =
  List.iter (fun w -> w.wake ()) ws;
  List.length ws

let store t e ws =
  if e.watches = [] then (if ws <> [] then t.busy <- t.busy + 1)
  else if ws = [] then t.busy <- t.busy - 1;
  e.watches <- ws

(* Drop [key]'s entry; returns its watches, to wake. *)
let drop t key e =
  let ws = e.watches in
  store t e [];
  Hashtbl.remove t.entries key;
  ws

let entry t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e = { watches = []; pending = 0; registered = 0 } in
      Hashtbl.add t.entries key e;
      e

(* Clear [dir]'s pending bit; whether it was set. *)
let take_pending e dir =
  let b = bit dir in
  let was = e.pending land b <> 0 in
  e.pending <- e.pending land lnot b;
  was

(* Register what the watch needs (with [rearm], re-arm it anyway) and
   publish the watch.  Returns the watches to wake: none, or all of the
   entry's when the fd is gone. *)
let publish t key e w ~rearm =
  let mask = e.registered lor needs w.dir in
  if (rearm || mask <> e.registered) && not (t.register key ~was:e.registered mask)
  then w :: drop t key e
  else begin
    e.registered <- mask;
    store t e (w :: e.watches);
    []
  end

(* Waiter side: consume a pending edge or publish the watch, in one
   critical section. *)
let park t key w ~rearm =
  let e = entry t key in
  if take_pending e w.dir && not rearm then [ w ] else publish t key e w ~rearm

let arm t key w ~rearm =
  ignore
    (wake_all
       (locked t
          (fun () -> if t.closed then [ w ] else park t key w ~rearm)
          ()))

(* Reactor side: the kernel reported [key].  Wakes the watches the event
   satisfies; a reported direction no watch took stays pending. *)
let fire t key ~readable ~writable =
  let woken =
    locked t
      (fun () ->
        match Hashtbl.find_opt t.entries key with
        | None -> []
        | Some e ->
            let woken, kept =
              List.partition
                (fun w -> match w.dir with `R -> readable | `W -> writable)
                e.watches
            in
            store t e kept;
            let reported =
              (if readable then 1 else 0) lor if writable then 2 else 0
            in
            let took = List.fold_left (fun m w -> m lor bit w.dir) 0 woken in
            e.pending <- e.pending lor (reported land lnot took);
            woken)
      ()
  in
  wake_all woken

(* A waiter that lost its verdict to a timeout drops its watch. *)
let unwatch t key w =
  locked t
    (fun () ->
      match Hashtbl.find_opt t.entries key with
      | Some e when List.memq w e.watches ->
          store t e (List.filter (fun w' -> w' != w) e.watches)
      | _ -> ())
    ()

(* The fd is about to be closed: its number may be reused at once, so
   nothing of it may outlive the close. *)
let forget t key =
  let stranded =
    locked t
      (fun () ->
        match Hashtbl.find_opt t.entries key with
        | None -> []
        | Some e ->
            if e.registered <> 0 then
              ignore (t.register key ~was:e.registered 0);
            drop t key e)
      ()
  in
  ignore (wake_all stranded)

(* Every watch, cleared from its entry. *)
let take_all t =
  Hashtbl.fold
    (fun _ e acc ->
      let ws = e.watches in
      store t e [];
      List.rev_append ws acc)
    t.entries []

(* The reactor round failed: wake every waiter; each retries its
   syscall, which surfaces its own errno. *)
let reset t = wake_all (locked t take_all t)

(* Reactor shutdown: wake every waiter, drop every entry (the epoll fd
   goes with the reactor) and refuse later arms. *)
let close t =
  wake_all
    (locked t
       (fun () ->
         t.closed <- true;
         let ws = take_all t in
         Hashtbl.reset t.entries;
         ws)
       ())

let watched t = locked t (fun () -> t.busy) ()
