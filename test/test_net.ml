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

(* ---------- poller (all backends, sequential contract) ---------- *)

module Poller = Net.Poller

let backend_name = function
  | `Select -> "select"
  | `Poll -> "poll"
  | `Epoll -> "epoll"

let available_backends () : Net.Poller.backend list =
  [ `Select; `Poll ] @ (if Poller.epoll_available then [ `Epoll ] else [])

(* the contract every backend must honour identically: events only for
   currently-set interest, interest_count tracks set/drop, a quiet probe
   returns nothing *)
let poller_contract (b : Poller.backend) =
  let p = Poller.create ~backend:(b :> [ `Select | `Poll | `Epoll | `Auto ]) () in
  let rd, wr = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      Poller.close p;
      Unix.close rd;
      Unix.close wr)
    (fun () ->
      let name fmt = Printf.sprintf "%s: %s" (backend_name b) fmt in
      Alcotest.(check bool) (name "created as requested") true
        (Poller.backend p = b);
      Alcotest.(check int) (name "fresh poller watches nothing") 0
        (Poller.interest_count p);
      Poller.set p rd ~read:true ~write:false;
      Alcotest.(check int) (name "one fd under interest") 1
        (Poller.interest_count p);
      Alcotest.(check bool) (name "quiet pipe, empty probe") true
        (Poller.wait p ~timeout_ms:0 = []);
      ignore (Unix.write_substring wr "x" 0 1);
      (match Poller.wait p ~timeout_ms:500 with
      | [ ev ] ->
          Alcotest.(check bool) (name "read event on rd") true
            (ev.Poller.fd = rd && ev.Poller.readable)
      | evs -> Alcotest.failf "%s: expected one event, got %d"
                 (backend_name b) (List.length evs));
      (* an empty pipe buffer is immediately writable *)
      Poller.set p wr ~read:false ~write:true;
      Alcotest.(check int) (name "two fds under interest") 2
        (Poller.interest_count p);
      let evs = Poller.wait p ~timeout_ms:500 in
      Alcotest.(check bool) (name "wr reported writable") true
        (List.exists (fun e -> e.Poller.fd = wr && e.Poller.writable) evs);
      (* dropping interest silences a still-ready fd: the byte is still
         in the pipe, but events follow interest, not kernel state *)
      Poller.set p rd ~read:false ~write:false;
      Poller.set p wr ~read:false ~write:false;
      Alcotest.(check int) (name "interest dropped") 0
        (Poller.interest_count p);
      Alcotest.(check bool) (name "no interest, no events") true
        (Poller.wait p ~timeout_ms:0 = []))

let test_poller_contract () = List.iter poller_contract (available_backends ())

let test_poller_auto () =
  let p = Poller.create () in
  Fun.protect
    ~finally:(fun () -> Poller.close p)
    (fun () ->
      if Poller.epoll_available then
        Alcotest.(check string) "Auto picks epoll where available" "epoll"
          (backend_name (Poller.backend p))
      else
        Alcotest.(check bool) "Auto prefers poll over select" true
          (Poller.backend p <> `Select))

let test_poller_epoll_gate () =
  if Poller.epoll_available then begin
    let p = Poller.create ~backend:`Epoll () in
    Alcotest.(check bool) "explicit `Epoll honoured" true
      (Poller.backend p = `Epoll);
    Poller.close p
  end
  else
    match Poller.create ~backend:`Epoll () with
    | exception Invalid_argument _ -> ()
    | p ->
        Poller.close p;
        Alcotest.fail "`Epoll created on a platform without epoll"

let test_poller_epoll_recheck () =
  (* the lost-edge race, closed because arming re-checks readiness:
     (a) the fd turns ready BEFORE the watch arms, and (b) the one-shot
     report is consumed without draining the data and the watch is
     re-armed.  Between the two, the spent watch must stay silent. *)
  if not Poller.epoll_available then ()
  else begin
    let p = Poller.create ~backend:`Epoll () in
    let rd, wr = Unix.pipe ~cloexec:true () in
    Fun.protect
      ~finally:(fun () ->
        Poller.close p;
        Unix.close rd;
        Unix.close wr)
      (fun () ->
        ignore (Unix.write_substring wr "x" 0 1);
        let arm () =
          Alcotest.(check bool) "arm succeeds" true
            (Poller.arm p rd ~read:true ~write:false)
        in
        let readable ~timeout_ms =
          List.exists
            (fun e -> e.Poller.fd = rd && e.Poller.readable)
            (Poller.wait p ~timeout_ms)
        in
        arm ();
        Alcotest.(check bool) "ready before the watch still delivered" true
          (readable ~timeout_ms:500);
        Alcotest.(check bool) "a reported one-shot watch is disarmed" false
          (readable ~timeout_ms:0);
        (* data not drained; re-arm with the identical mask *)
        arm ();
        Alcotest.(check bool) "re-armed watch redelivers pending data" true
          (readable ~timeout_ms:500);
        (* a closed fd: the arm reports it gone instead of raising *)
        let gone, other = Unix.pipe ~cloexec:true () in
        Unix.close gone;
        Unix.close other;
        Alcotest.(check bool) "arm on a closed fd" false
          (Poller.arm p gone ~read:true ~write:false))
  end

(* ---------- live reactor ---------- *)

let with_reactor f =
  let r = Reactor.create () in
  Fun.protect ~finally:(fun () -> Reactor.shutdown r) (fun () -> f r)

let test_sleep () =
  with_reactor (fun r ->
      let t0 = Unix.gettimeofday () in
      let order = ref [] in
      let push tag = order := tag :: !order in
      Fiber.run_parallel ~domains:2 (fun () ->
          ignore
            (Fiber.spawn (fun () ->
                 Reactor.sleep r 0.06;
                 push `Long));
          Reactor.sleep r 0.02;
          push `Short;
          ());
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "slept at least the long timer" true (dt >= 0.06);
      Alcotest.(check bool) "short deadline fired first" true
        (List.rev !order = [ `Short; `Long ]))

let test_await_fd_pipe () =
  with_reactor (fun r ->
      let rd, wr = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock rd;
      Unix.set_nonblock wr;
      let got = ref "" in
      Fiber.run_parallel ~domains:2 (fun () ->
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
      Unix.close rd;
      Unix.close wr;
      Alcotest.(check string) "readiness delivered the write" "ping" !got)

(* The wake of a parked fiber is routed back to the worker that parked
   it, whatever worker the writer runs on.  Worker 1 is launched by the
   [spawn_on] delivery even on a one-core host. *)
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
      Unix.close rd;
      Unix.close wr;
      Alcotest.(check (option int)) "parked on worker 1" (Some 1) !before;
      Alcotest.(check (option int)) "resumed on worker 1" (Some 1) !after)

let test_await_fd_deadline () =
  with_reactor (fun r ->
      let rd, wr = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock rd;
      let verdict = ref `Ready in
      let t0 = Unix.gettimeofday () in
      Fiber.run_parallel ~domains:2 (fun () ->
          (* nobody ever writes: the deadline must win *)
          verdict := Reactor.await_fd r ~deadline:(Reactor.now () +. 0.05) rd `R);
      let dt = Unix.gettimeofday () -. t0 in
      Unix.close rd;
      Unix.close wr;
      Alcotest.(check bool) "timed out" true (!verdict = `Timeout);
      Alcotest.(check bool) "after the deadline" true (dt >= 0.045))

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
      Unix.close rd;
      Unix.close wr)
    (fun () ->
      let v = f rd ~deadline:(at +. race_offset i) in
      Fiber.join writer;
      v)

let test_deadline_racing_io () =
  with_reactor (fun r ->
      let oks = ref 0 and timeouts = ref 0 in
      Fiber.run_parallel ~domains:2 (fun () ->
          for i = 1 to 30 do
            race_pipe r i (fun rd ~deadline ->
                let buf = Bytes.create 1 in
                match Fio.read r ~deadline rd buf 0 1 with
                | 1 when Bytes.get buf 0 = 'x' -> incr oks
                | n -> Alcotest.failf "torn read %S" (Bytes.sub_string buf 0 n)
                | exception Fio.Timeout -> incr timeouts)
          done);
      Alcotest.(check int) "every race resolved" 30 (!oks + !timeouts);
      Printf.printf "deadline-vs-io races: %d completed, %d timed out\n%!" !oks
        !timeouts)

let test_sleep_edge_cases () =
  (* zero, negative and already-past deadlines must return promptly --
     no park, or a park the next poll round releases --
     and never hang the engine *)
  with_reactor (fun r ->
      let t0 = Unix.gettimeofday () in
      Fiber.run_parallel ~domains:2 (fun () ->
          Reactor.sleep r 0.;
          Reactor.sleep r (-1.);
          Reactor.sleep_until r 0. (* the 1970 deadline *);
          Reactor.sleep_until r (Reactor.now () -. 5.));
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "degenerate sleeps returned promptly (%.3fs)" dt)
        true (dt < 1.0))

let test_deadline_during_cancel () =
  (* [`Ready] wins the verdict CAS, then cancels the armed timer; with
     the deadline on the byte's arrival the cancel often races the
     turn holder's concurrent fire.  [`Ready] must mean the byte is
     there; a [`Timeout] must leave no stale registration, so a second,
     deadline-free await still sees the byte. *)
  with_reactor (fun r ->
      let ready = ref 0 and timeouts = ref 0 in
      Fiber.run_parallel ~domains:2 (fun () ->
          for i = 1 to 30 do
            race_pipe r i (fun rd ~deadline ->
                (match Reactor.await_fd r ~deadline rd `R with
                | `Ready -> incr ready
                | `Timeout ->
                    incr timeouts;
                    if Reactor.await_fd r rd `R <> `Ready then
                      Alcotest.fail "re-await after Timeout");
                let buf = Bytes.create 1 in
                match Unix.read rd buf 0 1 with
                | 1 when Bytes.get buf 0 = 'x' -> ()
                | n -> Alcotest.failf "torn read %S" (Bytes.sub_string buf 0 n))
          done);
      Alcotest.(check int) "every race resolved" 30 (!ready + !timeouts);
      Printf.printf "deadline-vs-cancel races: %d Ready, %d Timeout\n%!" !ready
        !timeouts)

let test_fiber_io_pipe () =
  with_reactor (fun r ->
      let rd, wr = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock rd;
      Unix.set_nonblock wr;
      let n = 256 * 1024 in
      let src = Bytes.init n (fun i -> Char.chr (i land 0xff)) in
      let dst = Bytes.create n in
      Fiber.run_parallel ~domains:2 (fun () ->
          let w =
            Fiber.spawn (fun () ->
                (* far beyond the pipe buffer: the writer must park on
                   `W` while the reader drains *)
                Fio.write_all r wr src 0 n;
                Unix.close wr)
          in
          Fio.read_exact r rd dst 0 n;
          Fiber.join w);
      Unix.close rd;
      Alcotest.(check bool) "roundtrip intact" true (Bytes.equal src dst))

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
   The peer writes one byte: the reader's report spends the fd's
   one-shot registration, which must be re-armed for the writer still
   queued.  Then the peer drains and the writer must wake. *)
let test_reader_and_writer_one_fd () =
  with_reactor (fun r ->
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
      Fiber.run_parallel ~domains:2 (fun () ->
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
          Alcotest.(check bool) "the writer is still parked" true (parked writer);
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
      Unix.close a;
      Unix.close b;
      Alcotest.(check string) "the reader got the byte" "x" !got;
      Alcotest.(check int) "the writer's byte went out" 1 !wrote)

(* On epoll a parked fiber arms its own watch: a park/wake cycle sends
   the reactor thread no command, and the thread polls once per
   readiness report, not once per arm.  A ping-pong over a socketpair
   parks a reader on every hop. *)
let test_park_costs_no_command () =
  with_reactor (fun r ->
      if Reactor.backend r = `Epoll then begin
        let a, b =
          Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
        in
        Unix.set_nonblock a;
        Unix.set_nonblock b;
        let hops = 1000 in
        let before = ref (Reactor.stats r) and after = ref (Reactor.stats r) in
        Fiber.run_parallel ~domains:1 (fun () ->
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
        Unix.close a;
        Unix.close b;
        let d f = f !after - f !before in
        let commands = d (fun s -> s.Reactor.commands)
        and polls = d (fun s -> s.Reactor.polls)
        and wakeups = d (fun s -> s.Reactor.wakeups) in
        Printf.printf "%d hops: %d wakeups, %d polls, %d commands\n%!" hops
          wakeups polls commands;
        Alcotest.(check int) "no command per park" 0 commands;
        Alcotest.(check bool)
          (Printf.sprintf "every hop parked (%d wakeups)" wakeups)
          true (wakeups >= hops);
        Alcotest.(check bool)
          (Printf.sprintf "polls %d <= wakeups %d + 5" polls wakeups)
          true (polls <= wakeups + 5)
      end)

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
  Unix.close a;
  Unix.close b;
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
  with_reactor (fun r ->
      kc_beside_parked_read r ~domains:1;
      kc_beside_parked_read r ~domains:2)

(* Both workers spin on [Fiber.yield], so neither parks and nobody waits
   in the poller; a busy worker's fairness tick takes a non-blocking
   turn, and readiness must still reach the parked reader. *)
let test_busy_workers_poll () =
  with_reactor (fun r ->
      let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.set_nonblock a;
      let fails = Domain_check.create () in
      let woke_at = ref infinity and deadline = ref 0. in
      Fiber.run_parallel ~domains:2 (fun () ->
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
          let s0 = Fiber.spawn_on ~worker:0 spin
          and s1 = Fiber.spawn_on ~worker:1 spin in
          ignore (Unix.write_substring b "x" 0 1);
          Fiber.join reader;
          Fiber.join s0;
          Fiber.join s1);
      Unix.close a;
      Unix.close b;
      Domain_check.report fails;
      Alcotest.(check bool) "the reader woke while the workers spun" true
        (!woke_at < !deadline))

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

let test_tcp_echo () =
  with_reactor (fun r ->
      let clients = 16 and rounds = 5 in
      let ok = Atomic.make 0 in
      Fiber.run_parallel ~domains:2 (fun () ->
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
                      if Bytes.to_string buf <> msg then
                        failwith "echo mismatch"
                    done;
                    Unix.close fd;
                    Atomic.incr ok))
          in
          List.iter Fiber.join fibers;
          Tcp.stop srv;
          let st = Tcp.stats srv in
          if st.Tcp.accepted <> clients then
            failwith
              (Printf.sprintf "accepted %d of %d" st.Tcp.accepted clients);
          if st.Tcp.active <> 0 then failwith "connections leaked past stop";
          if st.Tcp.completed <> clients then
            failwith
              (Printf.sprintf "completed %d of %d" st.Tcp.completed clients));
      Alcotest.(check int) "every client echoed" clients (Atomic.get ok))

let test_tcp_backpressure () =
  with_reactor (fun r ->
      let clients = 8 and cap = 2 in
      Fiber.run_parallel ~domains:2 (fun () ->
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
                    Unix.close fd))
          in
          List.iter Fiber.join fibers;
          Tcp.stop srv;
          let st = Tcp.stats srv in
          if st.Tcp.accepted <> clients then
            failwith (Printf.sprintf "accepted %d" st.Tcp.accepted);
          if st.Tcp.max_active > cap then
            failwith
              (Printf.sprintf "max_conns=%d breached: %d concurrent" cap
                 st.Tcp.max_active);
          Printf.printf
            "backpressure: %d clients through %d slots, %d accept parks\n%!"
            clients cap st.Tcp.accept_retries))

(* fd exhaustion on accept: with every fd taken, the accept of a
   pending client fails with EMFILE.  The server must back off and
   retry rather than let the error abort the run, so once the hoarded
   fds are released the client is served and the run completes. *)
let test_tcp_accept_emfile () =
  let hoard = ref [] in
  let release () =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !hoard;
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
                    Unix.close fd;
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
                Unix.close fd
              end
              else begin
                release ();
                echoed := "hi";
                print_endline "RLIMIT_NOFILE too large to exhaust: skipped"
              end;
              Tcp.stop srv)));
  Alcotest.(check string) "client echoed after fds freed" "hi" !echoed

let test_tcp_graceful_stop () =
  with_reactor (fun r ->
      let served = Atomic.make false in
      Fiber.run_parallel ~domains:2 (fun () ->
          let srv =
            Tcp.start ~reactor:r
              ~addr:(Unix.ADDR_INET (localhost, 0))
              ~handler:(fun r c ->
                Reactor.sleep r 0.05;
                ignore
                  (Fio.write_once r c.Tcp.fd (Bytes.of_string "bye") 0 3);
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
          Alcotest.(check int) "one live connection" 1 (Tcp.active srv);
          (* stop must drain: the in-flight handler finishes, is not
             killed *)
          Tcp.stop srv;
          Alcotest.(check bool) "stop waited for the handler" true
            (Atomic.get served);
          Alcotest.(check int) "drained" 0 (Tcp.active srv);
          let buf = Bytes.create 3 in
          Fio.read_exact r fd buf 0 3;
          Alcotest.(check string) "response arrived before the drain" "bye"
            (Bytes.to_string buf);
          Unix.close fd));
  ()

let test_tcp_no_fd_leak () =
  match count_fds () with
  | None -> () (* no /proc: skip silently, the CI runner has it *)
  | Some baseline ->
      with_reactor (fun r ->
          Fiber.run_parallel ~domains:2 (fun () ->
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
                        Unix.close fd))
              in
              List.iter Fiber.join fibers;
              Tcp.stop srv));
      (* reactor shut down by with_reactor: its self-pipe is gone too *)
      let after =
        match count_fds () with Some n -> n | None -> baseline
      in
      Alcotest.(check int) "fd count back to baseline" baseline after

(* ---------- backend matrix ---------- *)

(* one echo burst against a caller-supplied reactor; returns how many
   clients round-tripped cleanly *)
let echo_burst r ~clients =
  let ok = Atomic.make 0 in
  Fiber.run_parallel ~domains:2 (fun () ->
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
                let msg = Printf.sprintf "msg-%04d" i in
                let len = String.length msg in
                let buf = Bytes.create len in
                for _ = 1 to 3 do
                  Fio.write_all r fd (Bytes.of_string msg) 0 len;
                  Fio.read_exact r fd buf 0 len;
                  if Bytes.to_string buf <> msg then failwith "echo mismatch"
                done;
                Unix.close fd;
                Atomic.incr ok))
      in
      List.iter Fiber.join fibers;
      Tcp.stop srv;
      let st = Tcp.stats srv in
      if st.Tcp.accepted <> clients then
        failwith (Printf.sprintf "accepted %d of %d" st.Tcp.accepted clients);
      if st.Tcp.active <> 0 then failwith "connections leaked past stop");
  Atomic.get ok

let test_echo_every_backend () =
  (* the same echo workload through each compiled-in poller backend:
     select and poll are epoll's independent cross-checks, so behavioural
     drift between them is a test failure, not a portability footnote *)
  List.iter
    (fun (b : Poller.backend) ->
      let r =
        Reactor.create ~backend:(b :> [ `Select | `Poll | `Epoll | `Auto ]) ()
      in
      Fun.protect
        ~finally:(fun () -> Reactor.shutdown r)
        (fun () ->
          Alcotest.(check bool)
            (backend_name b ^ ": reactor picked it") true
            (Reactor.backend r = b);
          let ok = echo_burst r ~clients:8 in
          Alcotest.(check int) (backend_name b ^ ": all clients echoed") 8 ok))
    (available_backends ())

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
          Alcotest.test_case "set/wait contract, every backend" `Quick
            test_poller_contract;
          Alcotest.test_case "Auto backend resolution" `Quick test_poller_auto;
          Alcotest.test_case "`Epoll gated on availability" `Quick
            test_poller_epoll_gate;
          Alcotest.test_case "epoll MOD re-check closes lost edges" `Quick
            test_poller_epoll_recheck;
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
        ] );
      ( "backend-matrix",
        [
          Alcotest.test_case "echo on every backend" `Quick
            test_echo_every_backend;
        ] );
    ]
