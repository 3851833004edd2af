(* Tier-1 tests for lib/net: the Timers deadline heap (pure,
   single-threaded), the Readiness handshake cell (sequential API
   contract; the concurrent interleavings are model-checked in
   test_check), and the live reactor stack -- sleep, await_fd and
   Fiber_io deadlines racing real pipe I/O, Fiber_io on real pipes and
   sockets, and the TCP server (echo, bounded backpressure, graceful
   drain, fd hygiene) -- all on the multicore fiber runtime. *)

module Fiber = Fiber_rt.Fiber
module Tm = Net.Timers
module Rd = Net.Readiness
module Reactor = Net.Reactor
module Fio = Net.Fiber_io
module Tcp = Net.Tcp_server

(* ---------- timers (deadline heap) ---------- *)

let schedule t ~at action =
  let tm = Tm.make ~at action in
  Tm.add t tm;
  tm

let test_timers_order () =
  let t = Tm.create () in
  let fired = ref [] in
  let note i () = fired := i :: !fired in
  (* scattered deadlines, two equal: fire order must be by deadline,
     insertion order among equals *)
  ignore (schedule t ~at:50. (note 3));
  ignore (schedule t ~at:10. (note 0));
  ignore (schedule t ~at:30.5 (note 2));
  ignore (schedule t ~at:10. (note 1));
  Alcotest.(check int) "nothing due before the first deadline" 0
    (Tm.advance t ~now:9.999);
  Alcotest.(check (list int)) "not fired early" [] (List.rev !fired);
  Alcotest.(check int) "a deadline equal to now is due" 2 (Tm.advance t ~now:10.);
  let n = Tm.advance t ~now:100. in
  Alcotest.(check int) "the rest fired" 2 n;
  Alcotest.(check (list int)) "deadline order" [ 0; 1; 2; 3 ] (List.rev !fired);
  Alcotest.(check (option (float 0.))) "heap drained" None (Tm.next_due t)

let test_timers_cancel () =
  let t = Tm.create () in
  let ran = ref 0 in
  let tm = schedule t ~at:10. (fun () -> incr ran) in
  Alcotest.(check bool) "cancel while pending" true (Tm.cancel tm);
  Alcotest.(check bool) "second cancel is false" false (Tm.cancel tm);
  Alcotest.(check int) "cancelled timer is not counted" 0 (Tm.advance t ~now:100.);
  Alcotest.(check int) "cancelled action never ran" 0 !ran;
  (* cancel-after-fire: the race a deadline vs completing I/O resolves
     by this CAS *)
  let tm2 = schedule t ~at:110. (fun () -> incr ran) in
  ignore (Tm.advance t ~now:120.);
  Alcotest.(check int) "fired" 1 !ran;
  Alcotest.(check bool) "cancel after fire is false" false (Tm.cancel tm2);
  Alcotest.(check bool) "fire after fire is false" false (Tm.fire tm2)

let test_timers_next_due () =
  let t = Tm.create () in
  Alcotest.(check (option (float 0.))) "empty heap has no deadline" None
    (Tm.next_due t);
  let a = schedule t ~at:5. ignore in
  ignore (schedule t ~at:1_000. ignore);
  ignore (schedule t ~at:20. ignore);
  Alcotest.(check (option (float 0.))) "earliest deadline" (Some 5.)
    (Tm.next_due t);
  (* a cancelled head must not cause an early wake: the next live
     deadline surfaces instead *)
  ignore (Tm.cancel a);
  Alcotest.(check (option (float 0.))) "cancelled head skipped" (Some 20.)
    (Tm.next_due t);
  Alcotest.(check int) "nothing due at the cancelled deadline" 0
    (Tm.advance t ~now:5.);
  Alcotest.(check int) "live deadline fires" 1 (Tm.advance t ~now:20.);
  Alcotest.(check (option (float 0.))) "last deadline" (Some 1_000.)
    (Tm.next_due t)

let test_timers_fire_all () =
  let t = Tm.create () in
  let fired = ref [] in
  let note i () = fired := i :: !fired in
  ignore (schedule t ~at:500. (note 1));
  ignore (schedule t ~at:4e9 (note 2));
  let tm = schedule t ~at:100. (note 0) in
  ignore (Tm.cancel tm);
  Alcotest.(check int) "shutdown sweep fires the pending two" 2 (Tm.fire_all t);
  Alcotest.(check (list int)) "in deadline order, cancelled skipped" [ 1; 2 ]
    (List.rev !fired);
  Alcotest.(check (option (float 0.))) "heap empty" None (Tm.next_due t);
  (* fire without the heap: the reactor's shutdown path for timers
     still in the command queue *)
  let ran = ref false in
  let loose = Tm.make ~at:9. (fun () -> ran := true) in
  Alcotest.(check bool) "loose fire runs the action" true (Tm.fire loose);
  Alcotest.(check bool) "exactly once" false (Tm.fire loose);
  Alcotest.(check bool) "fired" true !ran

let test_timers_past_deadlines () =
  (* deadlines at, before, or WAY before now must all fire on the very
     next advance, in deadline order *)
  let t = Tm.create () in
  let now = 1_000. in
  let fired = ref [] in
  let note i () = fired := i :: !fired in
  ignore (schedule t ~at:now (note 1)) (* exactly now *);
  ignore (schedule t ~at:(now -. 0.001) (note 0)) (* just past *);
  ignore (schedule t ~at:(-50.) (note 2)) (* negative *);
  ignore (schedule t ~at:0. (note 3)) (* the 1970 epoch *);
  Alcotest.(check (option (float 0.))) "overdue timers surface in next_due"
    (Some (-50.)) (Tm.next_due t);
  let n = Tm.advance t ~now in
  Alcotest.(check int) "all overdue timers fired in one advance" 4 n;
  Alcotest.(check (list int))
    "fired in deadline order" [ 2; 3; 0; 1 ] (List.rev !fired);
  (* a cancelled overdue timer is skipped, not resurrected *)
  let tm = schedule t ~at:5. (note 9) in
  Alcotest.(check bool) "cancel overdue" true (Tm.cancel tm);
  Alcotest.(check int) "cancelled overdue never fires" 0
    (Tm.advance t ~now:(now +. 1.));
  Alcotest.(check (option (float 0.))) "heap drained" None (Tm.next_due t)

(* ---------- readiness cell (sequential contract) ---------- *)

let test_readiness_memo () =
  let c = Rd.create () in
  Alcotest.(check bool) "post with nobody waiting memoizes" true
    (Rd.post c = `Memo);
  Alcotest.(check bool) "second post is already" true (Rd.post c = `Already);
  let ran = ref 0 in
  (match Rd.await c (fun () -> incr ran) with
  | `Was_ready -> ()
  | `Registered -> Alcotest.fail "memo not consumed");
  Alcotest.(check int) "memo ran the waiter inline" 1 !ran;
  (* memo consumed: the next await really parks *)
  (match Rd.await c (fun () -> incr ran) with
  | `Registered -> ()
  | `Was_ready -> Alcotest.fail "stale memo");
  Alcotest.(check bool) "post wakes the registration" true (Rd.post c = `Woke);
  Alcotest.(check int) "woken exactly once" 2 !ran;
  (* clear drops an abandoned registration *)
  ignore (Rd.await c (fun () -> incr ran));
  Rd.clear c;
  Alcotest.(check bool) "cleared cell memoizes again" true (Rd.post c = `Memo);
  Alcotest.(check int) "abandoned waiter never ran" 2 !ran

(* ---------- poller (edge-triggered epoll, sequential contract) ---------- *)

module Poller = Net.Poller

let reported p fd ~timeout_ms =
  List.exists
    (fun e -> e.Poller.fd = fd && e.Poller.readable)
    (Poller.wait p ~timeout_ms)

(* Events only for registered fds, each readiness rise reported once,
   and a removed fd is silent. *)
let test_poller_contract () =
  let p = Poller.create () in
  let rd, wr = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      Poller.close p;
      Unix.close rd;
      Unix.close wr)
    (fun () ->
      Alcotest.(check bool) "fresh poller, empty probe" true
        (Poller.wait p ~timeout_ms:0 = []);
      Alcotest.(check bool) "add" true (Poller.add p rd ~write:false);
      Alcotest.(check bool) "a second add fails" false
        (Poller.add p rd ~write:false);
      Alcotest.(check bool) "quiet pipe, empty probe" true
        (Poller.wait p ~timeout_ms:0 = []);
      ignore (Unix.write_substring wr "x" 0 1);
      (match Poller.wait p ~timeout_ms:500 with
      | [ ev ] ->
          Alcotest.(check bool) "read event on rd" true
            (ev.Poller.fd = rd && ev.Poller.readable)
      | evs -> Alcotest.failf "expected one event, got %d" (List.length evs));
      Alcotest.(check bool) "the edge is reported once" false
        (reported p rd ~timeout_ms:0);
      (* an empty pipe buffer is immediately writable: the add reports it *)
      Alcotest.(check bool) "add for writing" true (Poller.add p wr ~write:true);
      Alcotest.(check bool) "wr reported writable" true
        (List.exists
           (fun e -> e.Poller.fd = wr && e.Poller.writable)
           (Poller.wait p ~timeout_ms:500));
      Poller.remove p rd;
      Poller.remove p wr;
      ignore (Unix.write_substring wr "y" 0 1);
      Alcotest.(check bool) "removed fds are silent" true
        (Poller.wait p ~timeout_ms:0 = []);
      Alcotest.(check bool) "modify needs a registration" false
        (Poller.modify p rd ~write:false))

(* The reactor wakes fibers in the order the poller returns them; that
   order must be the order the fds became ready, or under load the
   first fd ready is served last and the tail latency grows. *)
let test_poller_fifo () =
  let p = Poller.create () in
  let pipes = List.init 3 (fun _ -> Unix.pipe ~cloexec:true ()) in
  Fun.protect
    ~finally:(fun () ->
      Poller.close p;
      List.iter (fun (rd, wr) -> Unix.close rd; Unix.close wr) pipes)
    (fun () ->
      List.iter (fun (rd, _) -> ignore (Poller.add p rd ~write:false)) pipes;
      let order = [ 2; 0; 1 ] in
      List.iter
        (fun i -> ignore (Unix.write_substring (snd (List.nth pipes i)) "x" 0 1))
        order;
      let fds = List.map (fun e -> e.Poller.fd) (Poller.wait p ~timeout_ms:500) in
      Alcotest.(check bool) "reported in the order they became ready" true
        (fds = List.map (fun i -> fst (List.nth pipes i)) order))

(* The race the pending bit closes, seen from the kernel: an edge that
   lands after a reader's EAGAIN is reported whether or not anybody is
   parked yet, and only once.  The bare wait's re-arm (modify) reports
   an fd that is still ready after its edge was spent; so does the add
   of an fd already ready. *)
let test_poller_edge_after_eagain () =
  let p = Poller.create () in
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock rd;
  Fun.protect
    ~finally:(fun () ->
      Poller.close p;
      Unix.close rd;
      Unix.close wr)
    (fun () ->
      ignore (Unix.write_substring wr "x" 0 1);
      Alcotest.(check bool) "add" true (Poller.add p rd ~write:false);
      Alcotest.(check bool) "an fd ready at its add is reported" true
        (reported p rd ~timeout_ms:500);
      let buf = Bytes.create 8 in
      ignore (Unix.read rd buf 0 8);
      (match Unix.read rd buf 0 8 with
      | _ -> Alcotest.fail "the drained pipe read data"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      (* EAGAIN seen; the byte arrives before the reader parks *)
      ignore (Unix.write_substring wr "y" 0 1);
      Alcotest.(check bool) "the edge after EAGAIN is reported" true
        (reported p rd ~timeout_ms:500);
      Alcotest.(check bool) "once" false (reported p rd ~timeout_ms:0);
      (* data not drained: only a re-arm reports it again *)
      Alcotest.(check bool) "modify" true (Poller.modify p rd ~write:false);
      Alcotest.(check bool) "the re-arm reports a ready fd" true
        (reported p rd ~timeout_ms:500);
      (* a closed fd cannot be registered *)
      let gone, other = Unix.pipe ~cloexec:true () in
      Unix.close gone;
      Unix.close other;
      Alcotest.(check bool) "add on a closed fd" false
        (Poller.add p gone ~write:false))

(* The serving cases run on as many domains as the host has cores, then
   on one more, so every host runs both the parallel and the
   oversubscribed schedule; the bound keeps a many-core host's run
   small.  Each failure message names its domain count. *)
let stress_domains =
  let n = min 32 (Domain.recommended_domain_count ()) in
  [ n; n + 1 ]

(* [failwith] inside a run, with the run's domain count appended. *)
let fail_at ~domains fmt =
  Printf.ksprintf
    (fun s -> failwith (Printf.sprintf "%s (domains=%d)" s domains))
    fmt

(* ---------- live reactor ---------- *)

let with_reactor f =
  let r = Reactor.create () in
  Fun.protect ~finally:(fun () -> Reactor.shutdown r) (fun () -> f r)

(* [f r ~domains] at each of [stress_domains], a fresh reactor each *)
let at_stress_domains f =
  List.iter (fun domains -> with_reactor (fun r -> f r ~domains)) stress_domains

(* a check's message, with the run's domain count appended *)
let at ~domains what = Printf.sprintf "%s (domains=%d)" what domains

let test_sleep () =
  at_stress_domains (fun r ~domains ->
      let t0 = Unix.gettimeofday () in
      let order = ref [] in
      let push tag = order := tag :: !order in
      Fiber.run_parallel ~domains (fun () ->
          ignore
            (Fiber.spawn (fun () ->
                 Reactor.sleep r 0.06;
                 push `Long));
          Reactor.sleep r 0.02;
          push `Short;
          ());
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (at ~domains "slept at least the long timer")
        true (dt >= 0.06);
      Alcotest.(check bool)
        (at ~domains "short deadline fired first")
        true
        (List.rev !order = [ `Short; `Long ]))

let test_await_fd_pipe () =
  at_stress_domains (fun r ~domains ->
      let rd, wr = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock rd;
      Unix.set_nonblock wr;
      let got = ref "" in
      Fiber.run_parallel ~domains (fun () ->
          ignore
            (Fiber.spawn (fun () ->
                 Reactor.sleep r 0.03;
                 ignore (Unix.write_substring wr "ping" 0 4)));
          (match Reactor.await_fd r rd `R with
          | `Ready ->
              let buf = Bytes.create 16 in
              let n = Unix.read rd buf 0 16 in
              got := Bytes.sub_string buf 0 n
          | `Timeout -> Alcotest.fail "no deadline given, yet Timeout"));
      Fio.close rd;
      Fio.close wr;
      Alcotest.(check string)
        (at ~domains "readiness delivered the write")
        "ping" !got)

(* The wake of a parked fiber is routed back to the worker that parked
   it, whatever worker the writer runs on.  Worker 1 is launched by the
   [spawn_on] delivery even on a one-core host.  It runs at exactly two
   domains, not at [stress_domains]: two workers, the parking one and
   the writing one, are what it tests. *)
let test_wake_returns_home () =
  with_reactor (fun r ->
      let rd, wr = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock rd;
      Unix.set_nonblock wr;
      let before = ref None and after = ref None in
      Fiber.run_parallel ~domains:2 (fun () ->
          let waiter =
            Fiber.spawn_on ~worker:1 (fun () ->
                before := Fiber.worker_index ();
                (match Reactor.await_fd r rd `R with
                | `Ready -> ()
                | `Timeout -> Alcotest.fail "no deadline given, yet Timeout");
                after := Fiber.worker_index ())
          in
          ignore
            (Fiber.spawn_on ~worker:0 (fun () ->
                 let give_up = Reactor.now () +. 2.0 in
                 while
                   Fiber.state waiter <> `Suspended && Reactor.now () < give_up
                 do
                   Reactor.sleep r 0.001
                 done;
                 ignore (Unix.write_substring wr "x" 0 1)));
          Fiber.join waiter);
      Fio.close rd;
      Fio.close wr;
      Alcotest.(check (option int)) "parked on worker 1" (Some 1) !before;
      Alcotest.(check (option int)) "resumed on worker 1" (Some 1) !after)

let test_await_fd_deadline () =
  at_stress_domains (fun r ~domains ->
      let rd, wr = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock rd;
      let verdict = ref `Ready in
      let t0 = Unix.gettimeofday () in
      Fiber.run_parallel ~domains (fun () ->
          (* nobody ever writes: the deadline must win *)
          verdict := Reactor.await_fd r ~deadline:(Reactor.now () +. 0.05) rd `R);
      let dt = Unix.gettimeofday () -. t0 in
      Fio.close rd;
      Fio.close wr;
      Alcotest.(check bool) (at ~domains "timed out") true (!verdict = `Timeout);
      Alcotest.(check bool) (at ~domains "after the deadline") true (dt >= 0.045))

(* A pipe whose writer lands at the read's deadline, give or take half a
   millisecond: the poll round that sees the byte and the one that fires
   the deadline race.  Run many rounds back to back; each must resolve
   to exactly one verdict -- the byte or Timeout, never a torn read --
   and neither the reader nor the writer may stay parked. *)
let race_offset i = 0.0005 *. float_of_int ((i mod 3) - 1)

let race_pipe r i f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock rd;
  Unix.set_nonblock wr;
  let at = Reactor.now () +. 0.005 in
  let writer =
    Fiber.spawn (fun () ->
        Reactor.sleep_until r at;
        ignore (Unix.write_substring wr "x" 0 1))
  in
  Fun.protect
    ~finally:(fun () ->
      Fio.close rd;
      Fio.close wr)
    (fun () ->
      let v = f rd ~deadline:(at +. race_offset i) in
      Fiber.join writer;
      v)

let test_deadline_racing_io () =
  at_stress_domains (fun r ~domains ->
      let oks = ref 0 and timeouts = ref 0 in
      Fiber.run_parallel ~domains (fun () ->
          for i = 1 to 30 do
            race_pipe r i (fun rd ~deadline ->
                let buf = Bytes.create 1 in
                match Fio.read r ~deadline rd buf 0 1 with
                | 1 when Bytes.get buf 0 = 'x' -> incr oks
                | n ->
                    failwith
                      (at ~domains
                         (Printf.sprintf "torn read %S" (Bytes.sub_string buf 0 n)))
                | exception Fio.Timeout -> incr timeouts)
          done);
      Alcotest.(check int) (at ~domains "every race resolved") 30 (!oks + !timeouts);
      Printf.printf "deadline-vs-io races at domains=%d: %d completed, %d timed out\n%!"
        domains !oks !timeouts)

let test_sleep_edge_cases () =
  (* zero, negative and already-past deadlines must return promptly --
     no park, or a park the next poll round releases --
     and never hang the engine *)
  at_stress_domains (fun r ~domains ->
      let t0 = Unix.gettimeofday () in
      Fiber.run_parallel ~domains (fun () ->
          Reactor.sleep r 0.;
          Reactor.sleep r (-1.);
          Reactor.sleep_until r 0. (* the 1970 deadline *);
          Reactor.sleep_until r (Reactor.now () -. 5.));
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (at ~domains (Printf.sprintf "degenerate sleeps returned promptly (%.3fs)" dt))
        true (dt < 1.0))

let test_deadline_during_cancel () =
  (* [`Ready] wins the verdict CAS, then cancels the armed timer; with
     the deadline on the byte's arrival the cancel often races the
     turn holder's concurrent fire.  [`Ready] must mean the byte is
     there; a [`Timeout] must leave no stale registration, so a second,
     deadline-free await still sees the byte. *)
  at_stress_domains (fun r ~domains ->
      let ready = ref 0 and timeouts = ref 0 in
      Fiber.run_parallel ~domains (fun () ->
          for i = 1 to 30 do
            race_pipe r i (fun rd ~deadline ->
                (match Reactor.await_fd r ~deadline rd `R with
                | `Ready -> incr ready
                | `Timeout ->
                    incr timeouts;
                    if Reactor.await_fd r rd `R <> `Ready then
                      failwith (at ~domains "re-await after Timeout"));
                let buf = Bytes.create 1 in
                match Unix.read rd buf 0 1 with
                | 1 when Bytes.get buf 0 = 'x' -> ()
                | n ->
                    failwith
                      (at ~domains
                         (Printf.sprintf "torn read %S" (Bytes.sub_string buf 0 n))))
          done);
      Alcotest.(check int) (at ~domains "every race resolved") 30 (!ready + !timeouts);
      Printf.printf "deadline-vs-cancel races at domains=%d: %d Ready, %d Timeout\n%!"
        domains !ready !timeouts)

let test_fiber_io_pipe () =
  at_stress_domains (fun r ~domains ->
      let rd, wr = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock rd;
      Unix.set_nonblock wr;
      let n = 256 * 1024 in
      let src = Bytes.init n (fun i -> Char.chr (i land 0xff)) in
      let dst = Bytes.create n in
      Fiber.run_parallel ~domains (fun () ->
          let w =
            Fiber.spawn (fun () ->
                (* far beyond the pipe buffer: the writer must park on
                   `W` while the reader drains *)
                Fio.write_all r wr src 0 n;
                Fio.close wr)
          in
          Fio.read_exact r rd dst 0 n;
          Fiber.join w);
      Fio.close rd;
      Alcotest.(check bool) (at ~domains "roundtrip intact") true (Bytes.equal src dst))

(* Every timer reaches the reactor as a command and a self-pipe poke.
   A self-pipe watch that disarmed after its first report would leave
   each later sleep to the 250 ms idle ceiling. *)
let test_sleeps_stay_prompt () =
  with_reactor (fun r ->
      let t0 = Unix.gettimeofday () in
      Fiber.run_parallel ~domains:1 (fun () ->
          for _ = 1 to 20 do
            Reactor.sleep r 0.001
          done);
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "20 sleeps of 1 ms took %.3f s" dt)
        true (dt < 1.0))

(* Both directions of one socket parked at once.  The send buffer is
   full, so the writer parks; nothing has arrived, so the reader parks.
   The peer writes one byte: the read edge wakes the reader, and the
   writer must stay parked.  Then the peer drains and the writer must
   wake. *)
let test_reader_and_writer_one_fd () =
  at_stress_domains (fun r ~domains ->
      let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.set_nonblock a;
      Unix.set_nonblock b;
      let chunk = Bytes.create 4096 in
      let rec fill n =
        match Unix.write a chunk 0 4096 with
        | k -> fill (n + k)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> n
      in
      let queued = fill 0 in
      let got = ref "" and wrote = ref 0 in
      Fiber.run_parallel ~domains (fun () ->
          let deadline = Reactor.now () +. 5.0 in
          let reader =
            Fiber.spawn (fun () ->
                let buf = Bytes.create 1 in
                let n = Fio.read r ~deadline a buf 0 1 in
                got := Bytes.sub_string buf 0 n)
          in
          let writer =
            Fiber.spawn (fun () ->
                Fio.write_all r ~deadline a (Bytes.of_string "w") 0 1;
                wrote := 1)
          in
          let until p =
            while (not (p ())) && Reactor.now () < deadline do
              Reactor.sleep r 0.001
            done
          in
          let parked f = Fiber.state f = `Suspended in
          until (fun () -> parked reader && parked writer);
          ignore (Unix.write_substring b "x" 0 1);
          until (fun () -> Fiber.state reader = `Done);
          if not (parked writer) then
            failwith (at ~domains "the writer woke before the drain");
          (* drain everything the filled buffer holds, plus the writer's
             byte once it lands *)
          let sink = Bytes.create 65536 in
          let drained = ref 0 in
          while !drained < queued + 1 && Reactor.now () < deadline do
            match Unix.read b sink 0 65536 with
            | n -> drained := !drained + n
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                Reactor.sleep r 0.001
          done;
          Fiber.join reader;
          Fiber.join writer);
      Fio.close a;
      Fio.close b;
      Alcotest.(check string) (at ~domains "the reader got the byte") "x" !got;
      Alcotest.(check int) (at ~domains "the writer's byte went out") 1 !wrote)

(* A parked fiber publishes its own watch: a park/wake cycle sends the
   reactor no command and, after each fd's first wait registered it, no
   syscall.  The worker in the poller polls once per readiness report,
   not once per park.  That lone worker holds the turn, so the wakes it
   fires are its own fibers' and deliver no wake token (no notify, no
   self-pipe poke).  A ping-pong over a socketpair parks a reader on
   every hop. *)
let test_park_costs_no_command () =
  with_reactor (fun r ->
        let a, b =
          Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
        in
        Unix.set_nonblock a;
        Unix.set_nonblock b;
        let hops = 1000 in
        let before = ref (Reactor.stats r) and after = ref (Reactor.stats r) in
        let sched = ref None in
        Fiber.run_parallel ~domains:1
          ~on_stats:(fun s -> sched := Some s)
          (fun () ->
            (* let the reactor's first round settle before measuring *)
            Reactor.sleep r 0.01;
            before := Reactor.stats r;
            let bounce fd ~serve =
              let buf = Bytes.create 1 in
              for _ = 1 to hops do
                if serve then Fio.write_all r fd buf 0 1;
                Fio.read_exact r fd buf 0 1;
                if not serve then Fio.write_all r fd buf 0 1
              done
            in
            let pong = Fiber.spawn (fun () -> bounce b ~serve:false) in
            bounce a ~serve:true;
            Fiber.join pong;
            after := Reactor.stats r);
        Fio.close a;
        Fio.close b;
        let d f = f !after - f !before in
        let commands = d (fun s -> s.Reactor.commands)
        and polls = d (fun s -> s.Reactor.polls)
        and wakeups = d (fun s -> s.Reactor.wakeups)
        and registrations = d (fun s -> s.Reactor.registrations) in
        let tokens = (Option.get !sched).Fiber.Sched_stats.wakes in
        Printf.printf
          "%d hops: %d wakeups, %d polls, %d commands, %d registrations, %d \
           wake tokens\n%!"
          hops wakeups polls commands registrations tokens;
        Alcotest.(check int) "no command per park" 0 commands;
        Alcotest.(check bool)
          (Printf.sprintf "one registration per fd, none per park (%d)"
             registrations)
          true (registrations <= 2);
        (* the lone worker holds the turn: its own wakes cost no notify *)
        Alcotest.(check int) "no wake token per hop" 0 tokens;
        Alcotest.(check bool)
          (Printf.sprintf "every hop parked (%d wakeups)" wakeups)
          true (wakeups >= hops);
        Alcotest.(check bool)
          (Printf.sprintf "polls %d <= wakeups %d + 5" polls wakeups)
          true (polls <= wakeups + 5))

(* The race the pending bit closes, at the reactor: a reader's read
   returns EAGAIN, the byte lands and a turn reports its edge before the
   reader parks.  Nobody is parked for that edge, so the table keeps it,
   and the reader's wait after EAGAIN takes it instead of parking until
   the deadline.  One worker makes the order deterministic: the sleep
   hands the worker to a turn, whose poll reports the edge. *)
let test_edge_before_park () =
  with_reactor (fun r ->
      let rd, wr = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock rd;
      Unix.set_nonblock wr;
      let buf = Bytes.create 8 in
      let verdict = ref `Timeout and waited = ref 0. in
      Fiber.run_parallel ~domains:1 (fun () ->
          (* the first wait registers the pipe *)
          let w =
            Fiber.spawn (fun () ->
                Reactor.sleep r 0.005;
                ignore (Unix.write_substring wr "a" 0 1))
          in
          ignore (Fio.read r rd buf 0 8);
          Fiber.join w;
          (match Unix.read rd buf 0 8 with
          | _ -> Alcotest.fail "the drained pipe read data"
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
          ignore (Unix.write_substring wr "b" 0 1);
          Reactor.sleep r 0.01;
          let t0 = Reactor.now () in
          verdict := Reactor.await_edge r ~deadline:(t0 +. 1.0) rd `R;
          waited := Reactor.now () -. t0);
      Fio.close rd;
      Fio.close wr;
      Alcotest.(check bool)
        (Printf.sprintf "the edge reported before the park was kept (%.3f s)"
           !waited)
        true (!verdict = `Ready))

(* The kernel drops a closed fd's registration without a report and
   hands its number to the next open.  A pipe is waited on and closed
   through [Fio.close]; the next pipe reuses the numbers; a read on it
   that parks right after EAGAIN must still be served. *)
let test_close_then_reuse () =
  with_reactor (fun r ->
      let pair () =
        let rd, wr = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock rd;
        Unix.set_nonblock wr;
        (rd, wr)
      in
      let served rd wr =
        let got = ref 0 in
        Fiber.run_parallel ~domains:1 (fun () ->
            let w =
              Fiber.spawn (fun () ->
                  Reactor.sleep r 0.005;
                  ignore (Unix.write_substring wr "x" 0 1))
            in
            got :=
              (try Fio.read r ~deadline:(Reactor.now () +. 1.0) rd (Bytes.create 1) 0 1
               with Fio.Timeout -> 0);
            Fiber.join w);
        !got = 1
      in
      let rd, wr = pair () in
      Alcotest.(check bool) "the first pipe is served" true (served rd wr);
      Fio.close rd;
      Fio.close wr;
      let rd', wr' = pair () in
      Alcotest.(check bool) "the numbers were reused" true (rd' = rd && wr' = wr);
      let ok = served rd' wr' in
      Fio.close rd';
      Fio.close wr';
      Alcotest.(check bool) "the reused number's wait is served within 1 s" true ok)

(* ---------- the reactor has no thread: workers take turns ---------- *)

let count_tasks () =
  match Sys.readdir "/proc/self/task" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

(* A worker with nothing to run waits in the poller itself, so the
   reactor needs no OS thread of its own. *)
let test_create_starts_no_thread () =
  match count_tasks () with
  | None -> ()
  | Some before ->
      with_reactor (fun r ->
          Alcotest.(check (option int)) "no thread after create" (Some before)
            (count_tasks ());
          Fiber.run_parallel ~domains:1 (fun () -> Reactor.sleep r 0.001));
      Alcotest.(check (option int)) "none left after shutdown" (Some before)
        (count_tasks ())

(* A fiber parked on a socket read binds the run to the reactor, so the
   idle worker waits in the poller.  A coupled getpid's completion comes
   from the KC thread and must poke the worker out of that wait rather
   than leave the wake to the poller's 250 ms ceiling. *)
let kc_beside_parked_read r ~domains =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  let lat = ref [||] and got = ref "" in
  let fails = Domain_check.create () in
  Fiber.run_parallel ~domains (fun () ->
      let reader =
        Fiber.spawn (fun () ->
            let buf = Bytes.create 1 in
            let n = Fio.read r a buf 0 1 in
            got := Bytes.sub_string buf 0 n)
      in
      let give_up = Reactor.now () +. 2.0 in
      while Fiber.state reader <> `Suspended && Reactor.now () < give_up do
        Fiber.yield ()
      done;
      lat :=
        Array.init 30 (fun _ ->
            let t0 = Unix.gettimeofday () in
            let pid = Fiber_rt.Blt_rt.coupled (fun () -> Unix.getpid ()) in
            Domain_check.check fails Alcotest.int "coupled getpid" (Unix.getpid ())
              pid;
            Unix.gettimeofday () -. t0);
      ignore (Unix.write_substring b "x" 0 1);
      Fiber.join reader);
  Fio.close a;
  Fio.close b;
  Domain_check.report fails;
  Alcotest.(check string) "the parked read completed" "x" !got;
  Array.sort compare !lat;
  let median = !lat.(Array.length !lat / 2) in
  Printf.printf "domains=%d: coupled getpid beside a parked read, median %.1f us\n%!"
    domains (median *. 1e6);
  Alcotest.(check bool)
    (Printf.sprintf "median %.2f ms < 5 ms at domains=%d" (median *. 1e3) domains)
    true (median < 0.005)

let test_kc_wakes_poller () =
  List.iter
    (fun domains -> with_reactor (fun r -> kc_beside_parked_read r ~domains))
    (List.sort_uniq compare (1 :: stress_domains))

(* Every worker spins on [Fiber.yield], so none parks and nobody waits
   in the poller; a busy worker's fairness tick takes a non-blocking
   turn, and readiness must still reach the parked reader. *)
let test_busy_workers_poll () =
  at_stress_domains (fun r ~domains ->
      let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.set_nonblock a;
      let fails = Domain_check.create () in
      let woke_at = ref infinity and deadline = ref 0. in
      Fiber.run_parallel ~domains (fun () ->
          let stop = Atomic.make false in
          deadline := Reactor.now () +. 2.0;
          let reader =
            Fiber.spawn (fun () ->
                let buf = Bytes.create 1 in
                let n = Fio.read r a buf 0 1 in
                Domain_check.check fails Alcotest.string "byte read" "x"
                  (Bytes.sub_string buf 0 n);
                woke_at := Reactor.now ();
                Atomic.set stop true)
          in
          while Fiber.state reader <> `Suspended && Reactor.now () < !deadline do
            Fiber.yield ()
          done;
          let spin () =
            while (not (Atomic.get stop)) && Reactor.now () < !deadline do
              Fiber.yield ()
            done
          in
          let spinners = List.init domains (fun w -> Fiber.spawn_on ~worker:w spin) in
          ignore (Unix.write_substring b "x" 0 1);
          Fiber.join reader;
          List.iter Fiber.join spinners);
      Fio.close a;
      Fio.close b;
      Domain_check.report fails;
      Alcotest.(check bool)
        (at ~domains "the reader woke while the workers spun")
        true (!woke_at < !deadline))

(* One run waits on one reactor, and one reactor serves one run at a
   time. *)
let test_second_reactor_raises () =
  with_reactor (fun r1 ->
      with_reactor (fun r2 ->
          let second = ref false in
          Fiber.run_parallel ~domains:1 (fun () ->
              Reactor.sleep r1 0.001;
              match Reactor.sleep r2 0.001 with
              | () -> ()
              | exception Invalid_argument _ -> second := true);
          Alcotest.(check bool) "a second reactor in one run raises" true !second;
          (* sequential runs share a reactor *)
          Fiber.run_parallel ~domains:1 (fun () -> Reactor.sleep r2 0.001);
          let bound = Atomic.make false and release = Atomic.make false in
          let other =
            Domain.spawn (fun () ->
                Fiber.run_parallel ~domains:1 (fun () ->
                    Reactor.sleep r1 0.001;
                    Atomic.set bound true;
                    while not (Atomic.get release) do
                      Reactor.sleep r1 0.001
                    done))
          in
          while not (Atomic.get bound) do
            Domain.cpu_relax ()
          done;
          let concurrent = ref false in
          Fiber.run_parallel ~domains:1 (fun () ->
              match Reactor.sleep r1 0.001 with
              | () -> ()
              | exception Invalid_argument _ -> concurrent := true);
          Atomic.set release true;
          Domain.join other;
          Alcotest.(check bool) "a second concurrent run raises" true !concurrent))

(* ---------- TCP server ---------- *)

let localhost = Unix.inet_addr_loopback

let echo_handler r (c : Tcp.conn) =
  let buf = Bytes.create 4096 in
  let rec loop () =
    match Fio.read r c.Tcp.fd buf 0 4096 with
    | 0 -> ()
    | n ->
        Fio.write_all r c.Tcp.fd buf 0 n;
        loop ()
  in
  loop ()

let connect_local r port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  Fio.connect r fd (Unix.ADDR_INET (localhost, port));
  fd

let count_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let tcp_echo r ~domains =
  let clients = 16 and rounds = 5 in
  let ok = Atomic.make 0 in
  let fail fmt = fail_at ~domains fmt in
  Fiber.run_parallel ~domains (fun () ->
      let srv =
        Tcp.start ~reactor:r
          ~addr:(Unix.ADDR_INET (localhost, 0))
          ~handler:echo_handler ()
      in
      let port = Tcp.port srv in
      let fibers =
        List.init clients (fun i ->
            Fiber.spawn (fun () ->
                let fd = connect_local r port in
                let msg = Printf.sprintf "hello-%03d" i in
                let len = String.length msg in
                let buf = Bytes.create len in
                for _ = 1 to rounds do
                  Fio.write_all r fd (Bytes.of_string msg) 0 len;
                  Fio.read_exact r fd buf 0 len;
                  if Bytes.to_string buf <> msg then fail "echo mismatch"
                done;
                Fio.close fd;
                Atomic.incr ok))
      in
      List.iter Fiber.join fibers;
      Tcp.stop srv;
      let st = Tcp.stats srv in
      if st.Tcp.accepted <> clients then
        fail "accepted %d of %d" st.Tcp.accepted clients;
      if st.Tcp.active <> 0 then fail "connections leaked past stop";
      if st.Tcp.completed <> clients then
        fail "completed %d of %d" st.Tcp.completed clients);
  Alcotest.(check int)
    (Printf.sprintf "every client echoed (domains=%d)" domains)
    clients (Atomic.get ok)

let test_tcp_echo () =
  with_reactor (fun r ->
      List.iter (fun domains -> tcp_echo r ~domains) stress_domains)

let tcp_backpressure r ~domains =
  let clients = 8 and cap = 2 in
  let fails = Domain_check.create () in
  let st = ref None in
  Fiber.run_parallel ~domains (fun () ->
      let srv =
        Tcp.start ~reactor:r ~max_conns:cap
          ~addr:(Unix.ADDR_INET (localhost, 0))
          ~handler:(fun r c ->
            (* hold the slot so the cap actually binds *)
            Reactor.sleep r 0.02;
            echo_handler r c)
          ()
      in
      let port = Tcp.port srv in
      let fibers =
        List.init clients (fun _ ->
            Fiber.spawn (fun () ->
                let fd = connect_local r port in
                Fio.write_all r fd (Bytes.of_string "hi") 0 2;
                let buf = Bytes.create 2 in
                Fio.read_exact r fd buf 0 2;
                Domain_check.check fails Alcotest.string "echo" "hi"
                  (Bytes.to_string buf);
                Fio.close fd))
      in
      List.iter Fiber.join fibers;
      Tcp.stop srv;
      st := Some (Tcp.stats srv));
  Domain_check.report fails;
  let st = Option.get !st in
  Alcotest.(check int)
    (Printf.sprintf "accepted at domains=%d" domains)
    clients st.Tcp.accepted;
  Alcotest.(check int) "drained" 0 st.Tcp.active;
  if st.Tcp.max_active > cap then
    Alcotest.failf "max_conns=%d breached at domains=%d: %d concurrent" cap
      domains st.Tcp.max_active;
  Printf.printf
    "backpressure at domains=%d: %d clients through %d slots, %d accept \
     waits\n%!"
    domains clients cap st.Tcp.accept_retries

let test_tcp_backpressure () =
  with_reactor (fun r ->
      List.iter (fun domains -> tcp_backpressure r ~domains) stress_domains)

(* At max_conns = 1, one connection holds the slot while a second waits
   in the backlog, so the accept loop waits at capacity.  [stop] must
   release that loop itself: the handler holds its slot until the server
   has closed its listening socket, which [stop] does only once the loop
   is gone, and then takes 50 ms more.  A [stop] that left the loop for
   a retiring connection to free would wait forever here.  [stop]
   returns after the handler, with every fd back. *)
let tcp_stop_gated_loop ~baseline ~domains =
  let served = Atomic.make false and st = ref None in
  with_reactor (fun r ->
      Fiber.run_parallel ~domains (fun () ->
          (* fds open before [stop]; the listener's close lowers it *)
          let open_fds = Atomic.make 0 in
          let srv =
            Tcp.start ~reactor:r ~max_conns:1
              ~addr:(Unix.ADDR_INET (localhost, 0))
              ~handler:(fun r _ ->
                while Atomic.get open_fds = 0 do
                  Reactor.sleep r 0.001
                done;
                while Option.get (count_fds ()) >= Atomic.get open_fds do
                  Reactor.sleep r 0.001
                done;
                Reactor.sleep r 0.05;
                Atomic.set served true)
              ()
          in
          let port = Tcp.port srv in
          let a = connect_local r port in
          let b = connect_local r port in
          let give_up = Reactor.now () +. 5.0 in
          while
            (Tcp.stats srv).Tcp.accept_retries = 0 && Reactor.now () < give_up
          do
            Reactor.sleep r 0.001
          done;
          Atomic.set open_fds (Option.get (count_fds ()));
          Tcp.stop srv;
          st := Some (Tcp.stats srv);
          Fio.close a;
          Fio.close b));
  let st = Option.get !st in
  let msg what = Printf.sprintf "%s (domains=%d)" what domains in
  Alcotest.(check bool) (msg "the loop waited at capacity") true
    (st.Tcp.accept_retries > 0);
  Alcotest.(check bool) (msg "stop returned after the handler") true
    (Atomic.get served);
  Alcotest.(check int) (msg "one connection accepted") 1 st.Tcp.accepted;
  Alcotest.(check int) (msg "drained") 0 st.Tcp.active;
  Alcotest.(check (option int)) (msg "fd count back to baseline")
    (Some baseline) (count_fds ())

let test_tcp_stop_gated_loop () =
  match count_fds () with
  | None -> () (* no /proc: skip silently, the CI runner has it *)
  | Some baseline ->
      List.iter
        (fun domains -> tcp_stop_gated_loop ~baseline ~domains)
        stress_domains

(* One edge can announce several queued connections.  With one worker
   the accept loop stays parked while two clients connect back to back,
   so both sit in the backlog before a turn reports the listener once.
   The loop accepts one, and only its re-armed wait can report the
   other. *)
let test_two_behind_one_edge () =
  with_reactor (fun r ->
      let accepted = ref 0 in
      Fiber.run_parallel ~domains:1 (fun () ->
          let srv =
            Tcp.start ~reactor:r
              ~addr:(Unix.ADDR_INET (localhost, 0))
              ~handler:(fun _ _ -> ())
              ()
          in
          (* let the accept loop park *)
          Reactor.sleep r 0.01;
          let connect () =
            let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.set_nonblock fd;
            (try Unix.connect fd (Unix.ADDR_INET (localhost, Tcp.port srv))
             with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
            fd
          in
          let a = connect () in
          let b = connect () in
          let give_up = Reactor.now () +. 1.0 in
          while (Tcp.stats srv).Tcp.accepted < 2 && Reactor.now () < give_up do
            Reactor.sleep r 0.001
          done;
          accepted := (Tcp.stats srv).Tcp.accepted;
          Fio.close a;
          Fio.close b;
          Tcp.stop srv);
      Alcotest.(check int) "both connections accepted within 1 s" 2 !accepted)

(* fd exhaustion on accept: with every fd taken, the accept of a
   pending client fails with EMFILE.  The server must back off and
   retry rather than let the error abort the run, so once the hoarded
   fds are released the client is served and the run completes. *)
let test_tcp_accept_emfile () =
  let hoard = ref [] in
  let release () =
    List.iter (fun fd -> try Fio.close fd with Unix.Unix_error _ -> ()) !hoard;
    hoard := []
  in
  (* dup until EMFILE; give up (and skip) past a cap so a huge
     RLIMIT_NOFILE does not turn the test into an fd-table stress *)
  let exhaust base =
    let rec go n =
      if n >= 200_000 then false
      else
        match Unix.dup ~cloexec:true base with
        | fd ->
            hoard := fd :: !hoard;
            go (n + 1)
        | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> true
    in
    go 0
  in
  let echoed = ref "" in
  Fun.protect ~finally:release (fun () ->
      with_reactor (fun r ->
          Fiber.run (fun () ->
              let srv =
                Tcp.start ~reactor:r
                  ~addr:(Unix.ADDR_INET (localhost, 0))
                  ~handler:echo_handler ()
              in
              let port = Tcp.port srv in
              let base = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
              hoard := [ base ];
              if exhaust base then begin
                (* one free fd, for the client's socket *)
                (match !hoard with
                | fd :: rest ->
                    Fio.close fd;
                    hoard := rest
                | [] -> ());
                let fd = connect_local r port in
                let deadline = Reactor.now () +. 5.0 in
                Fio.write_all r ~deadline fd (Bytes.of_string "hi") 0 2;
                (* the server now fails to accept, several times over *)
                Reactor.sleep r 0.05;
                Alcotest.(check int) "nothing accepted while out of fds" 0
                  (Tcp.stats srv).Tcp.accepted;
                release ();
                let buf = Bytes.create 2 in
                Fio.read_exact r ~deadline fd buf 0 2;
                echoed := Bytes.to_string buf;
                Fio.close fd
              end
              else begin
                release ();
                echoed := "hi";
                print_endline "RLIMIT_NOFILE too large to exhaust: skipped"
              end;
              Tcp.stop srv)));
  Alcotest.(check string) "client echoed after fds freed" "hi" !echoed

let tcp_graceful_stop r ~domains =
  let served = Atomic.make false in
  let msg what = Printf.sprintf "%s (domains=%d)" what domains in
  Fiber.run_parallel ~domains (fun () ->
      let srv =
        Tcp.start ~reactor:r
          ~addr:(Unix.ADDR_INET (localhost, 0))
          ~handler:(fun r c ->
            Reactor.sleep r 0.05;
            ignore (Fio.write_once r c.Tcp.fd (Bytes.of_string "bye") 0 3);
            Atomic.set served true)
          ()
      in
      let port = Tcp.port srv in
      let fd = connect_local r port in
      (* ensure the connection is accepted and in its handler *)
      let rec wait_accept n =
        if Tcp.active srv = 0 && n > 0 then begin
          Reactor.sleep r 0.005;
          wait_accept (n - 1)
        end
      in
      wait_accept 100;
      Alcotest.(check int) (msg "one live connection") 1 (Tcp.active srv);
      (* stop must drain: the in-flight handler finishes, is not
         killed *)
      Tcp.stop srv;
      Alcotest.(check bool) (msg "stop waited for the handler") true
        (Atomic.get served);
      Alcotest.(check int) (msg "drained") 0 (Tcp.active srv);
      let buf = Bytes.create 3 in
      Fio.read_exact r fd buf 0 3;
      Alcotest.(check string)
        (msg "response arrived before the drain")
        "bye" (Bytes.to_string buf);
      Fio.close fd)

let test_tcp_graceful_stop () =
  with_reactor (fun r ->
      List.iter (fun domains -> tcp_graceful_stop r ~domains) stress_domains)

let tcp_no_fd_leak ~baseline ~domains =
  with_reactor (fun r ->
      Fiber.run_parallel ~domains (fun () ->
          let srv =
            Tcp.start ~reactor:r
              ~addr:(Unix.ADDR_INET (localhost, 0))
              ~handler:echo_handler ()
          in
          let port = Tcp.port srv in
          let fibers =
            List.init 8 (fun _ ->
                Fiber.spawn (fun () ->
                    let fd = connect_local r port in
                    Fio.write_all r fd (Bytes.of_string "x") 0 1;
                    let b = Bytes.create 1 in
                    Fio.read_exact r fd b 0 1;
                    Fio.close fd))
          in
          List.iter Fiber.join fibers;
          Tcp.stop srv));
  (* reactor shut down by with_reactor: its self-pipe is gone too *)
  let after = match count_fds () with Some n -> n | None -> baseline in
  Alcotest.(check int)
    (Printf.sprintf "fd count back to baseline (domains=%d)" domains)
    baseline after

let test_tcp_no_fd_leak () =
  match count_fds () with
  | None -> () (* no /proc: skip silently, the CI runner has it *)
  | Some baseline ->
      List.iter (fun domains -> tcp_no_fd_leak ~baseline ~domains) stress_domains

let () =
  Test_seed.announce "test_net";
  Alcotest.run "net"
    [
      ( "timers",
        [
          Alcotest.test_case "fires in deadline order" `Quick test_timers_order;
          Alcotest.test_case "cancel, incl. after fire" `Quick test_timers_cancel;
          Alcotest.test_case "next_due skips a cancelled head" `Quick
            test_timers_next_due;
          Alcotest.test_case "fire_all shutdown sweep" `Quick test_timers_fire_all;
          Alcotest.test_case "past and negative deadlines" `Quick
            test_timers_past_deadlines;
        ] );
      ( "readiness",
        [ Alcotest.test_case "memo / wake / clear contract" `Quick test_readiness_memo ] );
      ( "poller",
        [
          Alcotest.test_case "add/wait contract" `Quick test_poller_contract;
          Alcotest.test_case "an edge between EAGAIN and the park is not lost"
            `Quick test_poller_edge_after_eagain;
          Alcotest.test_case "events come in the order fds became ready"
            `Quick test_poller_fifo;
        ] );
      ( "reactor",
        [
          Alcotest.test_case "sleep parks only the fiber" `Quick test_sleep;
          Alcotest.test_case "await_fd sees the write" `Quick test_await_fd_pipe;
          Alcotest.test_case "await_fd deadline" `Quick test_await_fd_deadline;
          Alcotest.test_case "deadline racing completing I/O" `Quick
            test_deadline_racing_io;
          Alcotest.test_case "deadline fires during the cancel path" `Quick
            test_deadline_during_cancel;
          Alcotest.test_case "sleep 0 / negative / past" `Quick
            test_sleep_edge_cases;
          Alcotest.test_case "wake returns to the parking worker" `Quick
            test_wake_returns_home;
          Alcotest.test_case "each poke wakes the reactor" `Quick
            test_sleeps_stay_prompt;
          Alcotest.test_case "reader and writer parked on one socket" `Quick
            test_reader_and_writer_one_fd;
          Alcotest.test_case "a park costs no command (epoll)" `Quick
            test_park_costs_no_command;
          Alcotest.test_case "create starts no OS thread" `Quick
            test_create_starts_no_thread;
          Alcotest.test_case "a KC completion pokes the poller" `Quick
            test_kc_wakes_poller;
          Alcotest.test_case "busy workers poll at the fairness tick" `Quick
            test_busy_workers_poll;
          Alcotest.test_case "a second reactor in one run raises" `Quick
            test_second_reactor_raises;
        ] );
      ( "fiber-io",
        [ Alcotest.test_case "pipe roundtrip with parking writer" `Quick
            test_fiber_io_pipe ] );
      ( "tcp-server",
        [
          Alcotest.test_case "echo, 16 clients" `Quick test_tcp_echo;
          Alcotest.test_case "max_conns backpressure" `Quick
            test_tcp_backpressure;
          Alcotest.test_case "accept survives EMFILE" `Quick
            test_tcp_accept_emfile;
          Alcotest.test_case "graceful drain on stop" `Quick
            test_tcp_graceful_stop;
          Alcotest.test_case "no fd leak" `Quick test_tcp_no_fd_leak;
          Alcotest.test_case "stop releases an accept loop parked at capacity"
            `Quick test_tcp_stop_gated_loop;
        ] );
      ( "edge-triggered",
        [
          Alcotest.test_case "an edge between EAGAIN and the park is not lost"
            `Quick test_edge_before_park;
          Alcotest.test_case
            "a waited fd closed through Fiber_io.close and its number reused \
             is served"
            `Quick test_close_then_reuse;
          Alcotest.test_case "two connections queued behind one edge are both \
                              accepted"
            `Quick test_two_behind_one_edge;
        ] );
    ]
