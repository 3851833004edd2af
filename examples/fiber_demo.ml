(* The REAL bi-level thread runtime (substrate S2): OCaml effect-handler
   fibers as user contexts, dedicated KC threads as original kernel
   contexts, on this actual machine.

   Demonstrates the paper's headline property with genuine blocking
   syscalls: while one fiber is coupled to its kernel thread inside a
   blocking call, the scheduler keeps running every other fiber -- and
   all of one fiber's coupled sections execute on the SAME OS thread
   (real system-call consistency).

   Run with:  dune exec examples/fiber_demo.exe *)

module Fiber = Fiber_rt.Fiber
module Blt_rt = Fiber_rt.Blt_rt

let () =
  Fiber.run (fun () ->
      Printf.printf "scheduler thread: %d\n%!" (Thread.id (Thread.self ()));

      (* a fiber that blocks for real (50 ms sleep on its original KC) *)
      let blocker =
        Fiber.spawn (fun () ->
            Printf.printf "blocker: coupling for a blocking syscall...\n%!";
            let kc =
              Blt_rt.coupled (fun () ->
                  Thread.delay 0.05;
                  Thread.id (Thread.self ()))
            in
            Printf.printf "blocker: back; slept on original KC (thread %d)\n%!"
              kc)
      in

      (* meanwhile, other fibers keep the scheduler busy *)
      let worker =
        Fiber.spawn (fun () ->
            let n = ref 0 in
            while Fiber.state blocker <> `Done do
              incr n;
              Fiber.yield ()
            done;
            Printf.printf "worker: made %d scheduling rounds DURING the sleep\n%!"
              !n)
      in

      (* consistency: every coupled call of one fiber uses one OS thread *)
      let consistent =
        Fiber.spawn (fun () ->
            let tids =
              List.init 4 (fun _ ->
                  Blt_rt.coupled (fun () -> Thread.id (Thread.self ())))
            in
            let uniq = List.sort_uniq compare tids in
            Printf.printf
              "consistent: 4 coupled getters ran on %d distinct thread(s): %s\n%!"
              (List.length uniq)
              (String.concat "," (List.map string_of_int uniq));
            (* and a real syscall through the same discipline *)
            let pid = Blt_rt.coupled (fun () -> Unix.getpid ()) in
            Printf.printf "consistent: coupled Unix.getpid () = %d\n%!" pid)
      in

      (* real file I/O without stalling the scheduler *)
      let writer =
        Fiber.spawn (fun () ->
            let path = Filename.temp_file "ulp_fiber" ".txt" in
            Blt_rt.coupled (fun () ->
                let oc = open_out path in
                output_string oc "written from a coupled section\n";
                close_out oc);
            let content =
              Blt_rt.coupled (fun () ->
                  let ic = open_in path in
                  let line = input_line ic in
                  close_in ic;
                  Sys.remove path;
                  line)
            in
            Printf.printf "writer: round-tripped %S through a real file\n%!"
              content)
      in

      Fiber.join blocker;
      Fiber.join worker;
      Fiber.join consistent;
      Fiber.join writer;
      Printf.printf "all fibers joined; scheduler exits\n%!")
