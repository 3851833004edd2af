(* The reactor's interest table: for each fd, the watches parked on it
   and the union of their directions.  One lock guards the table; the
   parked fiber's worker and the worker holding the reactor's turn both
   take it.

   On epoll a waiter arms its own watch.  Under the lock it publishes
   the watch in its fd's entry and hands the entry's union mask to
   [sync], which is one EPOLLONESHOT epoll_ctl.  The turn holder only
   reports: the kernel disarmed the registration when it reported
   it, so [fire] takes the lock, posts the watches the event satisfies,
   and re-arms only when a watch for the other direction is still
   queued on the fd.  Both steps sit under the lock for a reason:

   - publish before [sync]: a report that lands between a [sync] and
     its watch's publication would find nothing to wake, and the
     one-shot registration would be spent (a lost wakeup);
   - [sync] under the lock: two waiters on one fd must not arm their
     union masks out of order, or the later ctl can narrow the earlier
     one's mask.

   On poll and select the turn holder makes every call itself (their
   interest arrays are not thread-safe) and [sync] is a plain
   [Poller.set]; the same code then keeps those arrays equal to the
   table.  [sync fd 0] drops interest there and is a no-op on epoll,
   whose one-shot registration is already disarmed or will disarm
   itself on its next report.

   A timed-out waiter [unwatch]es its watch.  After [close] (reactor
   shutdown) an [arm] posts its own cell instead of registering it, so
   no fiber parks on a dead reactor.  [busy] counts the fds with a
   watch: a worker leaving the turn reads it to decide whether to hand
   the turn on.  Cells are posted after the lock is released: a post
   runs the waiter's wake, which must not run under the table lock.

   This module depends only on [Mutex], [Hashtbl] and [Readiness]:
   lib/check recompiles it against the traced Mutex and Atomic, with
   [sync] modelling the kernel's one-shot registration. *)

type dir = [ `R | `W ]
type watch = { dir : dir; cell : Readiness.t }

type entry = {
  mutable watches : watch list;
  mutable mask : int; (* union of [watches]' directions *)
}

type t = {
  lock : Mutex.t;
  entries : (int, entry) Hashtbl.t; (* raw fd -> entry; kept once made *)
  sync : int -> int -> bool; (* fd mask: arm or set; false = fd gone *)
  mutable closed : bool;
  mutable busy : int; (* entries with at least one watch *)
}

let bit = function `R -> 1 | `W -> 2
let mask_of ws = List.fold_left (fun m w -> m lor bit w.dir) 0 ws

let create ~sync =
  {
    lock = Mutex.create ();
    entries = Hashtbl.create 64;
    sync;
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

let post_all ws =
  List.fold_left
    (fun n w -> match Readiness.post w.cell with `Woke -> n + 1 | _ -> n)
    0 ws

(* Store [ws] as [key]'s watches and sync its mask.  Returns the watches
   to post: none, or all of them when the fd is gone. *)
let store t e ws =
  if e.watches = [] then (if ws <> [] then t.busy <- t.busy + 1)
  else if ws = [] then t.busy <- t.busy - 1;
  e.watches <- ws;
  e.mask <- mask_of ws

let settle t key e ws =
  store t e ws;
  if t.sync key e.mask then []
  else begin
    store t e [];
    ws
  end

(* Waiter side: publish, then arm, under one lock. *)
let arm t key dir cell =
  let w = { dir; cell } in
  let stranded =
    locked t
      (fun () ->
        if t.closed then [ w ]
        else
          match Hashtbl.find_opt t.entries key with
          | None ->
              let e = { watches = []; mask = 0 } in
              Hashtbl.add t.entries key e;
              settle t key e [ w ]
          | Some e -> settle t key e (w :: e.watches))
      ()
  in
  ignore (post_all stranded)

(* Reactor side: the kernel reported [key].  Posts the watches the event
   satisfies and re-syncs the rest; returns how many waiters woke. *)
let fire t key ~readable ~writable =
  let woken =
    locked t
      (fun () ->
        match Hashtbl.find_opt t.entries key with
        | None | Some { watches = []; _ } -> []
        | Some e ->
            let woken, kept =
              List.partition
                (fun w -> match w.dir with `R -> readable | `W -> writable)
                e.watches
            in
            woken @ settle t key e kept)
      ()
  in
  post_all woken

(* A waiter that lost its verdict to a timeout drops its watch. *)
let unwatch t key cell =
  let stranded =
    locked t
      (fun () ->
        match Hashtbl.find_opt t.entries key with
        | Some e when List.exists (fun w -> w.cell == cell) e.watches ->
            settle t key e (List.filter (fun w -> w.cell != cell) e.watches)
        | _ -> [])
      ()
  in
  ignore (post_all stranded)

(* Empty the table, dropping every fd's interest; returns every watch. *)
let take_all t =
  Hashtbl.fold
    (fun key e acc ->
      let ws = e.watches in
      store t e [];
      if ws <> [] then ignore (t.sync key 0);
      List.rev_append ws acc)
    t.entries []

(* The reactor round failed: wake every waiter; each retries its
   syscall, which surfaces its own errno. *)
let reset t = post_all (locked t take_all t)

(* Reactor shutdown: wake every waiter and refuse later arms. *)
let close t =
  post_all
    (locked t
       (fun () ->
         t.closed <- true;
         take_all t)
       ())

let watched t = locked t (fun () -> t.busy) ()
