(* TEST-ONLY copies of the reactor's Interest table, each with one
   deliberately seeded bug in the park-vs-report protocol.  Each loses a
   wakeup under edge-triggered registration, which the interleaving
   checker reports as a deadlock:

   - [Drops_entry.fire]: on a fire the reactor drops the fd's whole
     entry.  A writer parked beside the woken reader loses its watch,
     and the write edge that follows finds no entry to wake.

   - [Two_sections.arm]: the waiter checks the pending bit and
     publishes its watch in two critical sections.  An edge reported
     between the two sets a bit nobody reads again, and the watch
     published afterwards waits for an edge that already came.

   - [No_rearm.arm]: a bare wait (one with no EAGAIN before it) skips
     the re-arm.  An fd that is still ready after its edge was spent --
     a second connection queued behind the one the last edge announced
     -- is never reported again.

   - [Close_unlocked.arm]: the waiter reads [closed] before it takes the
     lock.  A shutdown sweep landing between the two misses the watch
     published afterwards, and nothing will ever wake it.

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
                 watches and the fd's registration *)
              if woken <> [] then ignore (drop t key e);
              woken)
        ()
    in
    wake_all woken
end

module Two_sections = struct
  include Interest

  let arm t key w ~rearm =
    let taken = locked t (fun () -> take_pending (entry t key) w.dir) () in
    if taken && not rearm then w.wake ()
    else
      (* THE SEEDED BUG: the faithful code publishes in the section that
         found no pending bit *)
      ignore
        (wake_all (locked t (fun () -> publish t key (entry t key) w ~rearm) ()))
end

module No_rearm = struct
  include Interest

  (* THE SEEDED BUG: the faithful code re-arms a bare wait *)
  let arm t key w ~rearm:_ = arm t key w ~rearm:false
end

module Close_unlocked = struct
  include Interest

  let arm t key w ~rearm =
    (* THE SEEDED BUG: the faithful code checks [closed] under the same
       lock as the publication *)
    let closed = locked t (fun () -> t.closed) () in
    if closed then w.wake ()
    else ignore (wake_all (locked t (fun () -> park t key w ~rearm) ()))
end
