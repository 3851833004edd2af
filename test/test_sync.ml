(* Unit + multi-domain stress tests for the fiber-aware synchronization
   toolkit (lib/fiber_rt/sync.ml, scope.ml).

   The single-worker cases pin down API semantics deterministically
   under [Fiber.run]; the stress cases run the real parallel engine
   ([Fiber.run_parallel]) at nproc and nproc + 1 domains, with
   randomized yield points drawn from TEST_SEED so failures replay:
   every failure message carries the seed (TEST_SEED=<n> reruns the
   exact same schedule pressure). *)

module Fiber = Fiber_rt.Fiber
module Sync = Fiber_rt.Sync
module Scope = Fiber_rt.Scope

let () = Test_seed.announce "test_sync"

(* Fail with the active seed appended, so any stress failure is
   replayable with [TEST_SEED=<seed> dune exec test/test_sync.exe]. *)
let failf fmt =
  Printf.ksprintf
    (fun s -> Alcotest.failf "%s (TEST_SEED=%d)" s Test_seed.seed)
    fmt

let checkf cond fmt =
  Printf.ksprintf
    (fun s ->
      if not cond then
        Alcotest.failf "%s (TEST_SEED=%d)" s Test_seed.seed)
    fmt

(* A per-fiber RNG derived from TEST_SEED; drives optional yields so
   the interleavings vary between seeds but not between reruns. *)
let maybe_yield rng =
  if Random.State.int rng 4 = 0 then Fiber.yield ()

(* Each stress runs on as many domains as the host has cores, then on
   one more, so every host runs both the parallel and the
   oversubscribed schedule.  The bound keeps a many-core host's run
   small. *)
let stress_domains =
  let n = min 32 (Domain.recommended_domain_count ()) in
  [ n; n + 1 ]

(* ------------------------------------------------------------------ *)
(* Mutex                                                              *)
(* ------------------------------------------------------------------ *)

let test_mutex_single () =
  Fiber.run (fun () ->
      let m = Sync.Mutex.create () in
      Sync.Mutex.lock m;
      checkf (not (Sync.Mutex.try_lock m)) "try_lock on a held mutex";
      Sync.Mutex.unlock m;
      checkf (Sync.Mutex.try_lock m) "try_lock on a free mutex";
      Sync.Mutex.unlock m;
      (* with_lock releases on exceptions. *)
      (try Sync.Mutex.with_lock m (fun () -> raise Exit)
       with Exit -> ());
      checkf (Sync.Mutex.try_lock m) "with_lock released after raise";
      Sync.Mutex.unlock m)

let test_mutex_unlock_unlocked () =
  Fiber.run (fun () ->
      let m = Sync.Mutex.create () in
      match Sync.Mutex.unlock m with
      | () -> failf "unlock of an unlocked mutex must raise"
      | exception Invalid_argument _ -> ())

(* The classic contended-counter total: [fibers] fibers each add
   [iters] to a plain ref under the lock, with seeded random yields
   inside and outside the critical section.  Any lost update or broken
   mutual exclusion shows up as a wrong total. *)
let mutex_stress domains =
  let fibers = 16 and iters = 400 in
  let m = Sync.Mutex.create () in
  let total = ref 0 in
  let in_cs = Atomic.make 0 in
  let overlap = Atomic.make false in
  Fiber.run_parallel ~domains (fun () ->
      let fs =
        List.init fibers (fun i ->
            Fiber.spawn (fun () ->
                let rng = Test_seed.derived_state i in
                for _ = 1 to iters do
                  maybe_yield rng;
                  Sync.Mutex.with_lock m (fun () ->
                      if Atomic.fetch_and_add in_cs 1 <> 0 then
                        Atomic.set overlap true;
                      let v = !total in
                      maybe_yield rng;
                      total := v + 1;
                      ignore (Atomic.fetch_and_add in_cs (-1)))
                done))
      in
      List.iter Fiber.join fs);
  checkf
    (not (Atomic.get overlap))
    "two fibers inside the critical section at domains=%d" domains;
  checkf
    (!total = fibers * iters)
    "contended counter at domains=%d: expected %d, got %d" domains
    (fibers * iters) !total

let test_mutex_stress () = List.iter mutex_stress stress_domains

(* Handoff order.  Under [Fiber.run] (one worker, so a failed lock
   parks at once) the main fiber holds the mutex, three fibers park on
   it in spawn order, and one unlock opens it.  Each unlock must hand
   the mutex to the oldest waiter, so the fibers lock it as 0, 1, 2. *)
let test_mutex_fifo_handoff () =
  let m = Sync.Mutex.create () in
  let order = ref [] in
  Fiber.run (fun () ->
      Sync.Mutex.lock m;
      let fs =
        List.init 3 (fun i ->
            Fiber.spawn (fun () ->
                Sync.Mutex.lock m;
                order := i :: !order;
                Sync.Mutex.unlock m))
      in
      (* A lone worker runs spawns FIFO: one yield lets all three park. *)
      Fiber.yield ();
      checkf (!order = []) "a fiber locked while the mutex was held";
      Sync.Mutex.unlock m;
      List.iter Fiber.join fs);
  let got = List.rev !order in
  checkf (got = [ 0; 1; 2 ]) "lock order %s, want 0,1,2"
    (String.concat "," (List.map string_of_int got))

(* ------------------------------------------------------------------ *)
(* Condition: a bounded buffer with produce/consume conservation.     *)
(* ------------------------------------------------------------------ *)

let bounded_buffer domains =
  let capacity = 4 and producers = 4 and consumers = 4 in
  let per_producer = 200 in
  let m = Sync.Mutex.create () in
  let not_full = Sync.Condition.create () in
  let not_empty = Sync.Condition.create () in
  let buf = Queue.create () in
  let consumed = Atomic.make 0 in
  let sum = Atomic.make 0 in
  let stop = producers * per_producer in
  Fiber.run_parallel ~domains (fun () ->
      let ps =
        List.init producers (fun p ->
            Fiber.spawn (fun () ->
                let rng = Test_seed.derived_state (400 + p) in
                for i = 1 to per_producer do
                  maybe_yield rng;
                  Sync.Mutex.lock m;
                  while Queue.length buf >= capacity do
                    Sync.Condition.wait not_full m
                  done;
                  Queue.push ((p * per_producer) + i) buf;
                  Sync.Condition.signal not_empty;
                  Sync.Mutex.unlock m
                done))
      in
      let cs =
        List.init consumers (fun c ->
            Fiber.spawn (fun () ->
                let rng = Test_seed.derived_state (500 + c) in
                let continue_ = ref true in
                while !continue_ do
                  maybe_yield rng;
                  Sync.Mutex.lock m;
                  while
                    Queue.is_empty buf && Atomic.get consumed < stop
                  do
                    Sync.Condition.wait not_empty m
                  done;
                  (match Queue.take_opt buf with
                  | Some v ->
                      ignore (Atomic.fetch_and_add sum v);
                      (* ulplint: allow atomic-check-then-faa -- the wait-loop check and this add both run under Sync.Mutex m, so no other consumer can act in between *)
                      if Atomic.fetch_and_add consumed 1 + 1 >= stop then
                        (* Everything is consumed: flush the sibling
                           consumers still parked on [not_empty]. *)
                        Sync.Condition.broadcast not_empty
                  | None -> continue_ := false);
                  Sync.Condition.signal not_full;
                  Sync.Mutex.unlock m
                done))
      in
      List.iter Fiber.join ps;
      List.iter Fiber.join cs);
  let expected_n = producers * per_producer in
  let expected_sum =
    (* Producer p pushes p*per_producer + i for i in 1..per_producer. *)
    let bases = List.init producers (fun p -> p * per_producer * per_producer) in
    List.fold_left ( + ) 0 bases
    + (producers * (per_producer * (per_producer + 1) / 2))
  in
  checkf
    (Atomic.get consumed = expected_n)
    "consumed %d of %d items at domains=%d" (Atomic.get consumed) expected_n
    domains;
  checkf
    (Atomic.get sum = expected_sum)
    "item sum %d <> expected %d at domains=%d (lost or duplicated items)"
    (Atomic.get sum) expected_sum domains

let test_condition_bounded_buffer () = List.iter bounded_buffer stress_domains

(* [broadcast] wakes every parked waiter.  Each of [k] waiters counts
   itself under the mutex, then waits on the flag; once the main fiber
   has seen all [k] counted and taken the mutex, every one of them is
   parked on the condition (a waiter releases the mutex only inside
   [wait]).  The main fiber sets the flag, unlocks, then broadcasts,
   and every waiter must return.  A waiter still parked after 5 s is
   recorded, and more broadcasts release it so the run ends with a
   message instead of a hang. *)
let broadcast_wakes_all domains =
  let k = 4 in
  let fails = Domain_check.create () in
  let m = Sync.Mutex.create () and c = Sync.Condition.create () in
  let flag = ref false in
  let parked = Atomic.make 0 and returned = Atomic.make 0 in
  Fiber.run_parallel ~domains (fun () ->
      let waiters =
        List.init k (fun _ ->
            Fiber.spawn (fun () ->
                Sync.Mutex.lock m;
                Atomic.incr parked;
                while not !flag do
                  Sync.Condition.wait c m
                done;
                Sync.Mutex.unlock m;
                Atomic.incr returned))
      in
      while Atomic.get parked < k do
        Fiber.yield ()
      done;
      Sync.Mutex.lock m;
      flag := true;
      Sync.Mutex.unlock m;
      Sync.Condition.broadcast c;
      let give_up = Unix.gettimeofday () +. 5.0 in
      while Atomic.get returned < k && Unix.gettimeofday () < give_up do
        Fiber.yield ()
      done;
      Domain_check.check fails Alcotest.int
        (Printf.sprintf "waiters returned after one broadcast at domains=%d"
           domains)
        k (Atomic.get returned);
      while Atomic.get returned < k do
        Sync.Condition.broadcast c;
        Fiber.yield ()
      done;
      List.iter Fiber.join waiters);
  Domain_check.report fails

let test_condition_broadcast () = List.iter broadcast_wakes_all (1 :: stress_domains)

(* ------------------------------------------------------------------ *)
(* Scope                                                              *)
(* ------------------------------------------------------------------ *)

let test_scope_waits_for_children () =
  let done_ = Array.make 5 false in
  Fiber.run (fun () ->
      Scope.run (fun sc ->
          for i = 0 to 4 do
            Scope.spawn sc (fun () ->
                for _ = 0 to i do
                  Fiber.yield ()
                done;
                done_.(i) <- true)
          done);
      Array.iteri
        (fun i d -> checkf d "child %d not finished when Scope.run returned" i)
        done_)

let test_scope_failure_propagates () =
  Fiber.run (fun () ->
      let sibling_saw_cancel = ref false in
      match
        Scope.run (fun sc ->
            Scope.spawn sc (fun () ->
                (* Poll cancellation cooperatively until the failing
                   sibling takes the scope down. *)
                try
                  while true do
                    Scope.check sc;
                    Fiber.yield ()
                  done
                with Scope.Cancelled ->
                  sibling_saw_cancel := true;
                  raise Scope.Cancelled);
            Scope.spawn sc (fun () ->
                Fiber.yield ();
                failwith "boom"))
      with
      | () -> failf "Scope.run must re-raise the child failure"
      | exception Failure msg ->
          checkf (msg = "boom") "wrong failure: %s" msg;
          checkf !sibling_saw_cancel "sibling never observed cancellation")

let test_scope_cancel_is_quiet () =
  Fiber.run (fun () ->
      let v =
        Scope.run (fun sc ->
            Scope.spawn sc (fun () ->
                try
                  while true do
                    Scope.check sc;
                    Fiber.yield ()
                  done
                with Scope.Cancelled -> raise Scope.Cancelled);
            Fiber.yield ();
            Scope.cancel sc;
            checkf (Scope.is_cancelled sc) "cancel is sticky";
            checkf (Scope.failure sc = None) "cancel records no failure";
            "body-value")
      in
      checkf (v = "body-value") "cancelled scope still returns the body value")

let test_scope_spawn_after_exit () =
  Fiber.run (fun () ->
      let leaked = ref None in
      Scope.run (fun sc -> leaked := Some sc);
      let sc = Option.get !leaked in
      checkf (Scope.live sc = 0) "scope drained";
      match Scope.spawn sc (fun () -> ()) with
      | () -> failf "spawn into an exited scope must raise"
      | exception Invalid_argument _ -> ())

exception Tagged of int

let scope_stress domains =
  let children = 64 in
  let ran = Atomic.make 0 in
  let observed = ref None in
  (try
     Fiber.run_parallel ~domains (fun () ->
         Scope.run (fun sc ->
             for i = 0 to children - 1 do
               Scope.spawn sc (fun () ->
                   let rng = Test_seed.derived_state (700 + i) in
                   maybe_yield rng;
                   ignore (Atomic.fetch_and_add ran 1);
                   (* A seeded quarter of the children fail; the scope
                      must surface exactly one failure, after ALL
                      children ran. *)
                   if Random.State.int rng 4 = 0 then raise (Tagged i))
             done))
   with Tagged i -> observed := Some i);
  checkf
    (Atomic.get ran = children)
    "only %d/%d children ran before Scope.run returned at domains=%d"
    (Atomic.get ran) children domains;
  (* Whether a failure surfaced depends on the seed; when one did it
     must be one of the children's tags. *)
  match !observed with
  | None -> ()
  | Some i ->
      checkf (i >= 0 && i < children) "alien failure tag %d at domains=%d" i
        domains

let test_scope_stress () = List.iter scope_stress stress_domains

let first_failure_wins domains =
  let winner = ref (-1) in
  (try
     Fiber.run_parallel ~domains (fun () ->
         Scope.run (fun sc ->
             for i = 0 to 15 do
               Scope.spawn sc (fun () -> raise (Tagged i))
             done))
   with Tagged i -> winner := i);
  checkf
    (!winner >= 0 && !winner < 16)
    "exactly one tag must surface at domains=%d, got %d" domains !winner

let test_scope_first_failure_wins () = List.iter first_failure_wins stress_domains

(* ------------------------------------------------------------------ *)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "sync"
    [
      ( "mutex",
        [
          case "single/park" test_mutex_single;
          case "unlock-unlocked" test_mutex_unlock_unlocked;
          case "stress/park" test_mutex_stress;
          case "fifo-handoff" test_mutex_fifo_handoff;
        ] );
      ( "condition",
        [
          case "bounded-buffer" test_condition_bounded_buffer;
          case "broadcast wakes every parked waiter" test_condition_broadcast;
        ] );
      ( "scope",
        [
          case "waits-for-children" test_scope_waits_for_children;
          case "failure-propagates" test_scope_failure_propagates;
          case "cancel-is-quiet" test_scope_cancel_is_quiet;
          case "spawn-after-exit" test_scope_spawn_after_exit;
          case "stress" test_scope_stress;
          case "first-failure-wins" test_scope_first_failure_wins;
        ] );
    ]
