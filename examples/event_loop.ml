(* The event loop, inverted — on the REAL reactor this time.

   The previous version of this file hand-rolled a poll()-driven event
   loop on the simulated kernel: one thread multiplexing non-blocking
   descriptors, the programming model whose "more programming effort"
   the paper's Background section complains about.  lib/net makes that
   loop disappear: an idle worker waits in poll() for everyone, and
   each consumer is a plain sequential read loop in its own fiber —
   blocking-style code, non-blocking execution.  Only the fiber that would block parks; the
   worker domains keep running everything else.

   Three producer fibers write bursts into real Unix pipes at different
   paces (Reactor.sleep for pacing); one consumer fiber per pipe drains
   it with Fiber_io.read until EOF.  Compare the consumer below with the
   old explicit poll loop: the multiplexing is still happening — in the
   reactor — but no application code mentions it.

   Run with:  dune exec examples/event_loop.exe *)

module Fiber = Fiber_rt.Fiber
module Reactor = Net.Reactor
module Fio = Net.Fiber_io

let producers = [ ("fast", 0.003, 6); ("medium", 0.007, 4); ("slow", 0.015, 3) ]

let () =
  let r = Reactor.create () in
  let t0 = Fiber_rt.Clock.now () in
  let stamp () = (Fiber_rt.Clock.now () -. t0) *. 1e3 in
  let events = ref 0 in
  let events_lock = Mutex.create () in
  Fiber.run_parallel (fun () ->
      let fibers =
        List.concat_map
          (fun (name, gap, bursts) ->
            let rfd, wfd = Unix.pipe ~cloexec:true () in
            Unix.set_nonblock rfd;
            Unix.set_nonblock wfd;
            let producer =
              Fiber.spawn (fun () ->
                  for b = 1 to bursts do
                    Reactor.sleep r gap;
                    let line = Printf.sprintf "%s#%d" name b in
                    Fio.write_all r wfd (Bytes.of_string line) 0
                      (String.length line)
                  done;
                  Fio.close wfd)
            in
            let consumer =
              Fiber.spawn (fun () ->
                  (* the whole "event loop": a sequential blocking-style
                     read until EOF.  Parking and multiplexing live in
                     the reactor, not here. *)
                  let buf = Bytes.create 64 in
                  let rec drain () =
                    match Fio.read r rfd buf 0 64 with
                    | 0 ->
                        Fio.close rfd;
                        Printf.printf "[%8.1f ms] %-6s closed\n%!" (stamp ())
                          name
                    | n ->
                        (* ulplint: allow raw-mutex-in-fiber -- two-line counter bump shared with the main thread; never parks while held *)
                        Mutex.lock events_lock;
                        incr events;
                        Mutex.unlock events_lock;
                        Printf.printf "[%8.1f ms] %-6s -> %S\n%!" (stamp ())
                          name
                          (Bytes.sub_string buf 0 n);
                        drain ()
                  in
                  drain ())
            in
            [ producer; consumer ])
          producers
      in
      List.iter Fiber.join fibers);
  Reactor.shutdown r;
  Printf.printf "event loop done: %d messages multiplexed by the reactor\n"
    !events;
  let st = Reactor.stats r in
  Printf.printf "(reactor: %d poll rounds, %d wakeups, %d timers fired)\n"
    st.Reactor.polls st.Reactor.wakeups st.Reactor.timers_fired
