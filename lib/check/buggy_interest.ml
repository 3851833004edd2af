(* TEST-ONLY copies of the reactor's Interest table, each with one
   deliberately seeded bug in the arm-vs-fire protocol.  Both lose a
   wakeup under EPOLLONESHOT, which the interleaving checker reports as
   a deadlock:

   - [Drops_entry.fire]: on a fire the reactor drops the fd's whole
     entry.  A writer parked beside the woken reader loses its watch,
     and since the kernel disarmed the one-shot registration when it
     reported the read, nothing re-arms the write direction.

   - [Mod_first.arm]: the waiter issues its epoll_ctl before it
     publishes its watch.  A report landing between the two finds no
     watch to wake, the one-shot registration is spent, and the watch
     published afterwards is never armed.

   - [Close_unlocked.arm]: the waiter reads [closed] before it takes the
     lock.  A shutdown sweep landing between the two misses the watch
     published afterwards, and nothing will ever post it.

   test_check asserts that the checker catches each twin while the
   faithful [Interest] passes the same scenarios exhaustively.  Never
   use outside tests. *)

module Drops_entry = struct
  include Interest

  let fire t key ~readable ~writable =
    let woken =
      locked t
        (fun () ->
          match Hashtbl.find_opt t.entries key with
          | None -> []
          | Some e ->
              let woken =
                List.filter
                  (fun w -> match w.dir with `R -> readable | `W -> writable)
                  e.watches
              in
              (* THE SEEDED BUG: the faithful code keeps the unsatisfied
                 watches and re-arms their directions *)
              if woken <> [] then store t e [];
              woken)
        ()
    in
    post_all woken
end

module Mod_first = struct
  include Interest

  let arm t key dir cell =
    let w = { dir; cell } in
    let cur =
      locked t
        (fun () ->
          match Hashtbl.find_opt t.entries key with
          | Some e -> e.mask
          | None -> 0)
        ()
    in
    (* THE SEEDED BUG: the ctl runs before the watch is published, and
       outside the lock *)
    ignore (t.sync key (cur lor bit dir));
    locked t
      (fun () ->
        match Hashtbl.find_opt t.entries key with
        | Some e -> store t e (w :: e.watches)
        | None ->
            let e = { watches = []; mask = 0 } in
            Hashtbl.add t.entries key e;
            store t e [ w ])
      ()
end

module Close_unlocked = struct
  include Interest

  let arm t key dir cell =
    let w = { dir; cell } in
    (* THE SEEDED BUG: the faithful code checks [closed] under the same
       lock as the publication *)
    let closed = locked t (fun () -> t.closed) () in
    if closed then ignore (post_all [ w ])
    else
      locked t
        (fun () ->
          match Hashtbl.find_opt t.entries key with
          | Some e -> ignore (settle t key e (w :: e.watches))
          | None ->
              let e = { watches = []; mask = 0 } in
              Hashtbl.add t.entries key e;
              ignore (settle t key e [ w ]))
        ()
end
