(* Tier-1 tests for lib/net: the hierarchical timer wheel (pure,
   single-threaded), the Readiness handshake cell (sequential API
   contract; the concurrent interleavings are model-checked in
   test_check), and the live reactor stack -- sleep, await_fd,
   with_timeout, Fiber_io on real pipes and sockets, and the TCP server
   (echo, bounded backpressure, graceful drain, fd hygiene) -- all on
   the multicore fiber runtime. *)

module Fiber = Fiber_rt.Fiber
module Tw = Net.Timer_wheel
module Rd = Net.Readiness
module Reactor = Net.Reactor
module Fio = Net.Fiber_io
module Tcp = Net.Tcp_server

(* ---------- timer wheel ---------- *)

let test_wheel_order () =
  let w = Tw.create () in
  let fired = ref [] in
  let note i () = fired := i :: !fired in
  (* scattered deadlines, two sharing a tick: fire order must be by
     deadline, insertion order within a tick *)
  ignore (Tw.schedule w ~at:50 (note 3));
  ignore (Tw.schedule w ~at:10 (note 0));
  ignore (Tw.schedule w ~at:30 (note 2));
  ignore (Tw.schedule w ~at:10 (note 1));
  Alcotest.(check int) "nothing due before the first tick" 0 (Tw.advance w ~now:9);
  Alcotest.(check (list int)) "not fired early" [] (List.rev !fired);
  let n = Tw.advance w ~now:100 in
  Alcotest.(check int) "all four fired" 4 n;
  Alcotest.(check (list int)) "deadline order" [ 0; 1; 2; 3 ] (List.rev !fired);
  Alcotest.(check int) "wheel drained" 0 (Tw.pending w)

let test_wheel_cascade () =
  let w = Tw.create () in
  let fired = ref [] in
  let note i () = fired := i :: !fired in
  (* level 0 spans 256 ticks; 300 parks in level 1, 20_000 in level 2
     (256 * 64 = 16_384): both must cascade down and still fire in
     order, never early *)
  ignore (Tw.schedule w ~at:300 (note 0));
  ignore (Tw.schedule w ~at:20_000 (note 1));
  ignore (Tw.advance w ~now:299);
  Alcotest.(check (list int)) "coarse timers not fired early" [] (List.rev !fired);
  ignore (Tw.advance w ~now:300);
  Alcotest.(check (list int)) "level-1 timer cascaded and fired" [ 0 ]
    (List.rev !fired);
  ignore (Tw.advance w ~now:19_999);
  Alcotest.(check (list int)) "level-2 timer still parked" [ 0 ] (List.rev !fired);
  ignore (Tw.advance w ~now:20_001);
  Alcotest.(check (list int)) "level-2 timer fired after two cascades"
    [ 0; 1 ] (List.rev !fired);
  (* a deadline already in the past fires on the next advance *)
  ignore (Tw.schedule w ~at:5 (note 2));
  ignore (Tw.advance w ~now:20_001);
  Alcotest.(check (list int)) "overdue timer fires immediately" [ 0; 1; 2 ]
    (List.rev !fired)

let test_wheel_cancel () =
  let w = Tw.create () in
  let ran = ref 0 in
  let tm = Tw.schedule w ~at:10 (fun () -> incr ran) in
  Alcotest.(check bool) "cancel while pending" true (Tw.cancel tm);
  Alcotest.(check bool) "second cancel is false" false (Tw.cancel tm);
  ignore (Tw.advance w ~now:100);
  Alcotest.(check int) "cancelled action never ran" 0 !ran;
  (* cancel-after-fire: the race with_timeout resolves by this CAS *)
  let tm2 = Tw.schedule w ~at:110 (fun () -> incr ran) in
  ignore (Tw.advance w ~now:120);
  Alcotest.(check int) "fired" 1 !ran;
  Alcotest.(check bool) "cancel after fire is false" false (Tw.cancel tm2);
  Alcotest.(check bool) "fired timer is not pending" false (Tw.is_pending tm2)

let test_wheel_next_due () =
  let w = Tw.create () in
  Alcotest.(check (option int)) "empty wheel has no hint" None (Tw.next_due w);
  let _ = Tw.schedule w ~at:1_000 ignore in
  (match Tw.next_due w with
  | None -> Alcotest.fail "pending timer but no hint"
  | Some h ->
      Alcotest.(check bool)
        (Printf.sprintf "hint %d never later than the deadline" h)
        true (h <= 1_000));
  (* advancing to the (possibly under-shot) hint converges on the timer *)
  let fired = ref false in
  let w2 = Tw.create () in
  let _ = Tw.schedule w2 ~at:20_000 (fun () -> fired := true) in
  let guard = ref 0 in
  let rec chase () =
    match Tw.next_due w2 with
    | None -> ()
    | Some h ->
        incr guard;
        if !guard > 10 then Alcotest.fail "next_due hint did not converge";
        ignore (Tw.advance w2 ~now:(max h (Tw.now w2)));
        if not !fired then chase ()
  in
  chase ();
  Alcotest.(check bool) "chasing the hint fires the timer" true !fired

let test_wheel_fire_all () =
  let w = Tw.create () in
  let fired = ref [] in
  let note i () = fired := i :: !fired in
  ignore (Tw.schedule w ~at:500 (note 1));
  ignore (Tw.schedule w ~at:40_000 (note 2));
  let tm = Tw.schedule w ~at:100 (note 0) in
  ignore (Tw.cancel tm);
  Alcotest.(check int) "shutdown sweep fires the pending two" 2 (Tw.fire_all w);
  Alcotest.(check (list int)) "in deadline order, cancelled skipped" [ 1; 2 ]
    (List.rev !fired);
  Alcotest.(check int) "wheel empty" 0 (Tw.pending w);
  (* fire without the wheel: the reactor's shutdown path for timers
     still in the command queue *)
  let ran = ref false in
  let loose = Tw.make ~at:9 (fun () -> ran := true) in
  Alcotest.(check bool) "loose fire runs the action" true (Tw.fire loose);
  Alcotest.(check bool) "exactly once" false (Tw.fire loose);
  Alcotest.(check bool) "fired" true !ran

let test_wheel_past_deadlines () =
  (* deadlines at, before, or WAY before the current tick must all fire
     on the very next advance, in deadline order, never be lost in a
     wrapped slot, and never block the wheel's progress *)
  let w = Tw.create ~start:1_000 () in
  let fired = ref [] in
  let note i () = fired := i :: !fired in
  ignore (Tw.schedule w ~at:1_000 (note 1)) (* exactly now *);
  ignore (Tw.schedule w ~at:999 (note 0)) (* just past *);
  ignore (Tw.schedule w ~at:(-50) (note 2)) (* negative tick *);
  ignore (Tw.schedule w ~at:0 (note 3)) (* epoch *);
  Alcotest.(check bool)
    "overdue timers surface in next_due" true
    (Tw.next_due w <> None);
  let n = Tw.advance w ~now:1_001 in
  Alcotest.(check int) "all overdue timers fired in one advance" 4 n;
  Alcotest.(check (list int))
    "fired in deadline order" [ 2; 3; 0; 1 ] (List.rev !fired);
  Alcotest.(check int) "wheel drained" 0 (Tw.pending w);
  (* a cancelled overdue timer is skipped, not resurrected *)
  let tm = Tw.schedule w ~at:5 (note 9) in
  Alcotest.(check bool) "cancel overdue" true (Tw.cancel tm);
  Alcotest.(check int) "cancelled overdue never fires" 0 (Tw.advance w ~now:1_002)

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
  (* the lost-edge race, closed by set's unconditional EPOLL_CTL_MOD:
     (a) the edge fires BEFORE the watch registers, and (b) the
     notification is consumed without draining the data and the same
     mask is re-armed.  A naive edge-triggered registration reports
     neither; the MOD readiness re-check must redeliver both. *)
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
        Poller.set p rd ~read:true ~write:false;
        let readable () =
          List.exists
            (fun e -> e.Poller.fd = rd && e.Poller.readable)
            (Poller.wait p ~timeout_ms:500)
        in
        Alcotest.(check bool) "edge before the watch still delivered" true
          (readable ());
        (* data not drained; re-arm with the identical mask *)
        Poller.set p rd ~read:true ~write:false;
        Alcotest.(check bool) "re-armed watch redelivers pending data" true
          (readable ()))
  end

let test_set_reuseport () =
  let s1 = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  if not (Poller.set_reuseport s1) then
    (* platform without SO_REUSEPORT: Tcp_server falls back to a shared
       listener; nothing further to assert *)
    Unix.close s1
  else begin
    Unix.bind s1 (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port =
      match Unix.getsockname s1 with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    in
    let s2 = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Alcotest.(check bool) "second socket takes the flag" true
      (Poller.set_reuseport s2);
    (match Unix.bind s2 (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) ->
        Alcotest.failf "SO_REUSEPORT rebind refused: %s"
          (Unix.error_message e));
    Unix.close s1;
    Unix.close s2
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

let test_with_timeout () =
  with_reactor (fun r ->
      let fast = ref (Error `Timeout) in
      let slow = ref (Ok ()) in
      let raised = ref false in
      Fiber.run_parallel ~domains:2 (fun () ->
          fast :=
            Reactor.with_timeout r ~seconds:0.5 (fun () ->
                Reactor.sleep r 0.01;
                Ok 42);
          slow := Reactor.with_timeout r ~seconds:0.02 (fun () -> Reactor.sleep r 0.2);
          (match Reactor.with_timeout r ~seconds:0.5 (fun () -> failwith "boom") with
          | exception Failure m when m = "boom" -> raised := true
          | _ -> ()));
      (match !fast with
      | Ok (Ok 42) -> ()
      | _ -> Alcotest.fail "fast body should win the race");
      Alcotest.(check bool) "slow body times out" true (!slow = Error `Timeout);
      Alcotest.(check bool) "body exceptions propagate" true !raised)

let test_with_timeout_racing_io () =
  (* with_timeout around I/O that completes right at the deadline: run
     many back-to-back races; every one must resolve to exactly one
     verdict and, on Ok, carry the read data (never a torn result). *)
  with_reactor (fun r ->
      let oks = ref 0 and timeouts = ref 0 in
      Fiber.run_parallel ~domains:2 (fun () ->
          for _ = 1 to 20 do
            let rd, wr = Unix.pipe ~cloexec:true () in
            Unix.set_nonblock rd;
            Unix.set_nonblock wr;
            ignore
              (Fiber.spawn (fun () ->
                   Reactor.sleep r 0.01;
                   ignore (Unix.write_substring wr "x" 0 1)));
            (match
               Reactor.with_timeout r ~seconds:0.0105 (fun () ->
                   let buf = Bytes.create 1 in
                   let n = Fio.read r rd buf 0 1 in
                   Bytes.sub_string buf 0 n)
             with
            | Ok "x" -> incr oks
            | Ok other -> Alcotest.failf "torn read %S" other
            | Error `Timeout -> incr timeouts);
            (* the abandoned body may still hold the fds for a moment;
               give it the leftover byte then reap *)
            Reactor.sleep r 0.02;
            Unix.close rd;
            Unix.close wr
          done);
      Alcotest.(check int) "every race resolved" 20 (!oks + !timeouts);
      Printf.printf "timeout-vs-io races: %d completed, %d timed out\n%!" !oks
        !timeouts)

let test_sleep_edge_cases () =
  (* zero, negative and already-past deadlines must return promptly --
     no park, or a park the overdue sweep releases on the next tick --
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

let test_with_timeout_edge_cases () =
  with_reactor (fun r ->
      let zero = ref (Ok 0) in
      let neg = ref (Ok 0) in
      let instant = ref (Error `Timeout) in
      Fiber.run_parallel ~domains:2 (fun () ->
          (* a deadline at (or before) "now" races a body that parks:
             the timer must win, promptly *)
          zero := Reactor.with_timeout r ~seconds:0. (fun () ->
              Reactor.sleep r 0.5;
              1);
          neg := Reactor.with_timeout r ~seconds:(-3.) (fun () ->
              Reactor.sleep r 0.5;
              2);
          (* a body that never parks may beat even an expired deadline:
             either verdict is legal, but it must resolve *)
          instant := Reactor.with_timeout r ~seconds:0. (fun () -> 3));
      Alcotest.(check bool) "zero deadline times out" true (!zero = Error `Timeout);
      Alcotest.(check bool) "negative deadline times out" true (!neg = Error `Timeout);
      (match !instant with
      | Ok 3 | Error `Timeout -> ()
      | Ok n -> Alcotest.failf "torn instant body: %d" n))

let test_with_timeout_deadline_during_cancel () =
  (* the Done path cancels the armed timer AFTER winning the verdict
     CAS; drive body completion and deadline onto the same tick many
     times so the cancel frequently races the concurrent fire.  Every
     iteration must resolve to exactly one verdict and Ok always
     carries the body's value (the loser's wake is absorbed). *)
  with_reactor (fun r ->
      let oks = ref 0 and timeouts = ref 0 in
      Fiber.run_parallel ~domains:2 (fun () ->
          for i = 1 to 30 do
            match
              Reactor.with_timeout r ~seconds:0.005 (fun () ->
                  Reactor.sleep r 0.005;
                  i)
            with
            | Ok j when j = i -> incr oks
            | Ok j -> Alcotest.failf "iteration %d returned %d" i j
            | Error `Timeout -> incr timeouts
          done);
      Alcotest.(check int) "every race resolved" 30 (!oks + !timeouts);
      Printf.printf "deadline-vs-cancel races: %d Ok, %d Timeout\n%!" !oks
        !timeouts)

(* ---------- scoped timeouts (reactor x Scope) ---------- *)

module Scope = Fiber_rt.Scope

let test_cancel_scope_after_fires () =
  with_reactor (fun r ->
      let cancelled_children = Atomic.make 0 in
      let t0 = Unix.gettimeofday () in
      Fiber.run_parallel ~domains:2 (fun () ->
          let v =
            Scope.run (fun sc ->
                let _disarm = Reactor.cancel_scope_after r ~seconds:0.03 sc in
                for _ = 1 to 3 do
                  Scope.spawn sc (fun () ->
                      try
                        while true do
                          Scope.check sc;
                          Reactor.sleep r 0.005
                        done
                      with Scope.Cancelled ->
                        ignore (Atomic.fetch_and_add cancelled_children 1);
                        raise Scope.Cancelled)
                done;
                "deadline-bounded")
          in
          Alcotest.(check string)
            "cancelled scope still returns the body value" "deadline-bounded" v);
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check int) "every child unwound via Cancelled" 3
        (Atomic.get cancelled_children);
      Alcotest.(check bool) "released by the deadline, not a hang" true
        (dt >= 0.025 && dt < 5.0))

let test_cancel_scope_after_disarm () =
  with_reactor (fun r ->
      Fiber.run_parallel ~domains:2 (fun () ->
          Scope.run (fun sc ->
              let disarm = Reactor.cancel_scope_after r ~seconds:5.0 sc in
              Scope.spawn sc (fun () -> Reactor.sleep r 0.01);
              Alcotest.(check bool)
                "disarm beats a far deadline" true (disarm ());
              Alcotest.(check bool) "second disarm is false" false (disarm ()));
          Alcotest.(check bool) "scope never cancelled" true true))

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

(* One slot, two listening sockets (SO_REUSEPORT where available): the
   loop whose socket is idle must not sit on the only slot while it
   waits, or a client the kernel hashes to the other socket is never
   accepted.  Clients run one at a time; sixteen of them land on both
   sockets except with probability 2^-15. *)
let test_tcp_one_slot_two_listeners () =
  with_reactor (fun r ->
      let clients = 16 in
      let served = Atomic.make 0 in
      Fiber.run_parallel ~domains:2 (fun () ->
          let srv =
            Tcp.start ~reactor:r ~max_conns:1 ~listeners:2
              ~addr:(Unix.ADDR_INET (localhost, 0))
              ~handler:echo_handler ()
          in
          let port = Tcp.port srv in
          for _ = 1 to clients do
            let fd = connect_local r port in
            let deadline = Reactor.now () +. 2.0 in
            Fio.write_all r ~deadline fd (Bytes.of_string "hi") 0 2;
            let buf = Bytes.create 2 in
            (match Fio.read_exact r ~deadline fd buf 0 2 with
            | () -> Atomic.incr served
            | exception Fio.Timeout -> ());
            Unix.close fd
          done;
          Tcp.stop srv;
          let st = Tcp.stats srv in
          if st.Tcp.max_active > 1 then
            failwith
              (Printf.sprintf "max_conns=1 breached: %d concurrent"
                 st.Tcp.max_active));
      Alcotest.(check int) "every client served" clients (Atomic.get served))

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

(* ---------- backend / shard matrix ---------- *)

(* one echo burst against a caller-supplied reactor; returns how many
   clients round-tripped cleanly plus the server's final stats *)
let echo_burst r ~clients =
  let ok = Atomic.make 0 in
  let final = ref None in
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
      if st.Tcp.active <> 0 then failwith "connections leaked past stop";
      final := Some st);
  (Atomic.get ok, Option.get !final)

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
          let ok, _ = echo_burst r ~clients:8 in
          Alcotest.(check int) (backend_name b ^ ": all clients echoed") 8 ok))
    (available_backends ())

let test_echo_sharded () =
  (* two reactor shards: watches land on both shard threads (worker
     affinity), and Tcp.start defaults to one accept loop per shard —
     SO_REUSEPORT listeners where the platform has them, a shared
     socket otherwise.  Either way every client must be served. *)
  let r = Reactor.create ~shards:2 () in
  Fun.protect
    ~finally:(fun () -> Reactor.shutdown r)
    (fun () ->
      Alcotest.(check int) "reactor reports two shards" 2
        (Reactor.shard_count r);
      let ok, st = echo_burst r ~clients:16 in
      Alcotest.(check int) "all clients echoed across shards" 16 ok;
      Alcotest.(check int) "one accept loop per shard" 2 st.Tcp.listeners;
      Printf.printf "sharded accept: %d listeners (%s)\n%!" st.Tcp.listeners
        (if st.Tcp.reuseport then "SO_REUSEPORT" else "shared-socket fallback"))

let () =
  Test_seed.announce "test_net";
  Alcotest.run "net"
    [
      ( "timer-wheel",
        [
          Alcotest.test_case "fires in deadline order" `Quick test_wheel_order;
          Alcotest.test_case "cascades across levels" `Quick test_wheel_cascade;
          Alcotest.test_case "cancel, incl. after fire" `Quick test_wheel_cancel;
          Alcotest.test_case "next_due hint converges" `Quick test_wheel_next_due;
          Alcotest.test_case "fire_all shutdown sweep" `Quick test_wheel_fire_all;
          Alcotest.test_case "past and negative deadlines" `Quick
            test_wheel_past_deadlines;
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
          Alcotest.test_case "SO_REUSEPORT double bind" `Quick
            test_set_reuseport;
        ] );
      ( "reactor",
        [
          Alcotest.test_case "sleep parks only the fiber" `Quick test_sleep;
          Alcotest.test_case "await_fd sees the write" `Quick test_await_fd_pipe;
          Alcotest.test_case "await_fd deadline" `Quick test_await_fd_deadline;
          Alcotest.test_case "with_timeout, both verdicts" `Quick
            test_with_timeout;
          Alcotest.test_case "with_timeout racing completing I/O" `Quick
            test_with_timeout_racing_io;
          Alcotest.test_case "sleep 0 / negative / past" `Quick
            test_sleep_edge_cases;
          Alcotest.test_case "with_timeout expired deadlines" `Quick
            test_with_timeout_edge_cases;
          Alcotest.test_case "deadline fires during the cancel path" `Quick
            test_with_timeout_deadline_during_cancel;
        ] );
      ( "scope-timeout",
        [
          Alcotest.test_case "cancel_scope_after fires" `Quick
            test_cancel_scope_after_fires;
          Alcotest.test_case "cancel_scope_after disarm" `Quick
            test_cancel_scope_after_disarm;
        ] );
      ( "fiber-io",
        [ Alcotest.test_case "pipe roundtrip with parking writer" `Quick
            test_fiber_io_pipe ] );
      ( "tcp-server",
        [
          Alcotest.test_case "echo, 16 clients" `Quick test_tcp_echo;
          Alcotest.test_case "max_conns backpressure" `Quick
            test_tcp_backpressure;
          Alcotest.test_case "max_conns 1 over two listeners" `Quick
            test_tcp_one_slot_two_listeners;
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
          Alcotest.test_case "echo across two reactor shards" `Quick
            test_echo_sharded;
        ] );
    ]
