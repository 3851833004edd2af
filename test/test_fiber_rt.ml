(* Tests for the real effects-based fiber runtime (substrate S2): these
   exercise actual OS threads, so they are about behaviour, not timing.
   The headline assertions: fibers interleave cooperatively; [coupled]
   sections of one fiber always execute on the same OS thread (real
   system-call consistency); and the scheduler keeps running other
   fibers while one is coupled. *)

module Fiber = Fiber_rt.Fiber
module Blt_rt = Fiber_rt.Blt_rt
module Adq = Fiber_rt.Atomic_deque
module Mpsc = Fiber_rt.Mpsc_queue

(* ---------- Chase-Lev atomic deque ---------- *)

let test_adq_owner_lifo_thief_fifo () =
  let d = Adq.create ~dummy:(-1) in
  Alcotest.(check bool) "starts empty" true (Adq.is_empty d);
  Alcotest.(check (option int)) "pop empty" None (Adq.pop d);
  Alcotest.(check (option int)) "steal empty" None (Adq.steal d);
  List.iter (Adq.push d) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Adq.length d);
  Alcotest.(check (option int)) "owner pops newest" (Some 4) (Adq.pop d);
  Alcotest.(check (option int)) "thief steals oldest" (Some 1) (Adq.steal d);
  Alcotest.(check (option int)) "next steal" (Some 2) (Adq.steal d);
  Alcotest.(check (option int)) "owner again" (Some 3) (Adq.pop d);
  Alcotest.(check (option int)) "drained (pop)" None (Adq.pop d);
  Alcotest.(check (option int)) "drained (steal)" None (Adq.steal d)

let test_adq_grow_preserves_items () =
  (* the initial buffer is 8 slots: 1000 pushes force several grows *)
  let n = 1000 in
  let d = Adq.create ~dummy:(-1) in
  for i = 0 to n - 1 do
    Adq.push d i
  done;
  Alcotest.(check int) "all queued" n (Adq.length d);
  (* steal half (oldest first), pop the rest (newest first) *)
  let steals = List.init (n / 2) (fun _ -> Adq.steal d) in
  let pops = List.init (n / 2) (fun _ -> Adq.pop d) in
  Alcotest.(check (list (option int)))
    "steals are 0..499 in order"
    (List.init (n / 2) (fun i -> Some i))
    steals;
  Alcotest.(check (list (option int)))
    "pops are 999..500 in order"
    (List.init (n / 2) (fun i -> Some (n - 1 - i)))
    pops;
  Alcotest.(check (option int)) "empty" None (Adq.pop d)

(* The headline concurrency assertion: with one owner pushing/popping
   and N thief domains stealing, every item is claimed exactly once --
   no lost and no duplicated work, across buffer grows. *)
let test_adq_multi_domain_stress () =
  let n = 20_000 and stealers = 3 in
  let d = Adq.create ~dummy:(-1) in
  let stop = Atomic.make false in
  let stolen = Array.make stealers [] in
  let doms =
    Array.init stealers (fun i ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            while not (Atomic.get stop) do
              match Adq.steal d with
              | Some x -> acc := x :: !acc
              | None -> Domain.cpu_relax ()
            done;
            let rec drain () =
              match Adq.steal d with
              | Some x ->
                  acc := x :: !acc;
                  drain ()
              | None -> ()
            in
            drain ();
            stolen.(i) <- !acc))
  in
  let popped = ref [] in
  for x = 0 to n - 1 do
    Adq.push d x;
    (* interleave owner pops so the last-element CAS race is exercised *)
    if x land 3 = 0 then
      match Adq.pop d with
      | Some v -> popped := v :: !popped
      | None -> ()
  done;
  let rec drain () =
    match Adq.pop d with
    | Some v ->
        popped := v :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Array.iter Domain.join doms;
  let all = List.concat (!popped :: Array.to_list stolen) in
  Alcotest.(check int) "items conserved" n (List.length all);
  Alcotest.(check (list int))
    "each item exactly once"
    (List.init n Fun.id)
    (List.sort compare all)

let test_adq_steal_batch_semantics () =
  let d = Adq.create ~dummy:(-1) in
  Alcotest.(check (list int)) "empty deque" [] (Adq.steal_batch d);
  for i = 0 to 9 do
    Adq.push d i
  done;
  Alcotest.(check (list int))
    "half the deque, oldest first" [ 0; 1; 2; 3; 4 ] (Adq.steal_batch d);
  Alcotest.(check (list int))
    "max_batch caps the take" [ 5; 6 ]
    (Adq.steal_batch ~max_batch:2 d);
  Alcotest.(check (list int)) "ceil(3/2) = 2" [ 7; 8 ] (Adq.steal_batch d);
  Alcotest.(check (list int)) "last element" [ 9 ] (Adq.steal_batch d);
  Alcotest.(check (list int)) "drained" [] (Adq.steal_batch d);
  Alcotest.(check (option int)) "owner agrees" None (Adq.pop d)

(* Same conservation bar as the single-steal stress, with batching
   thieves: one owner pushing/popping, N domains taking steal-half
   batches -- every item claimed exactly once across buffer grows. *)
let test_adq_steal_batch_stress () =
  let n = 20_000 and stealers = 3 in
  let d = Adq.create ~dummy:(-1) in
  let stop = Atomic.make false in
  let stolen = Array.make stealers [] in
  let doms =
    Array.init stealers (fun i ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            while not (Atomic.get stop) do
              match Adq.steal_batch d with
              | [] -> Domain.cpu_relax ()
              | batch -> acc := List.rev_append batch !acc
            done;
            let rec drain () =
              match Adq.steal_batch d with
              | [] -> ()
              | batch ->
                  acc := List.rev_append batch !acc;
                  drain ()
            in
            drain ();
            stolen.(i) <- !acc))
  in
  let popped = ref [] in
  for x = 0 to n - 1 do
    Adq.push d x;
    if x land 3 = 0 then
      match Adq.pop d with
      | Some v -> popped := v :: !popped
      | None -> ()
  done;
  let rec drain () =
    match Adq.pop d with
    | Some v ->
        popped := v :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Array.iter Domain.join doms;
  let all = List.concat (!popped :: Array.to_list stolen) in
  Alcotest.(check int) "items conserved" n (List.length all);
  Alcotest.(check (list int))
    "each item exactly once"
    (List.init n Fun.id)
    (List.sort compare all)

(* ---------- MPSC queue (the workers' inboxes) ---------- *)

let test_mpsc_fifo_batches () =
  let q = Mpsc.create () in
  Alcotest.(check bool) "empty" true (Mpsc.is_empty q);
  List.iter (Mpsc.push q) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "fifo batch" [ 1; 2; 3 ] (Mpsc.pop_all q);
  Alcotest.(check (list int)) "then empty" [] (Mpsc.pop_all q)

let test_mpsc_multi_producer () =
  let producers = 3 and per = 1_000 in
  let q = Mpsc.create () in
  let doms =
    Array.init producers (fun p ->
        Domain.spawn (fun () ->
            for v = 0 to per - 1 do
              Mpsc.push q (p, v)
            done))
  in
  (* drain concurrently with the producers *)
  let got = ref [] in
  let total = ref 0 in
  while !total < producers * per do
    match Mpsc.pop_all q with
    | [] -> Domain.cpu_relax ()
    | batch ->
        got := List.rev_append batch !got;
        total := !total + List.length batch
  done;
  Array.iter Domain.join doms;
  let got = List.rev !got in
  Alcotest.(check int) "conserved" (producers * per) (List.length got);
  (* per-producer order survives the stack-reversal batching *)
  for p = 0 to producers - 1 do
    let seq = List.filter_map (fun (p', v) -> if p' = p then Some v else None) got in
    Alcotest.(check (list int))
      (Printf.sprintf "producer %d in order" p)
      (List.init per Fun.id) seq
  done

(* ---------- fibers ---------- *)

let test_fibers_interleave () =
  let log = ref [] in
  Fiber.run (fun () ->
      let mk tag =
        Fiber.spawn (fun () ->
            for i = 1 to 3 do
              log := (tag, i) :: !log;
              Fiber.yield ()
            done)
      in
      let a = mk "a" and b = mk "b" in
      Fiber.join a;
      Fiber.join b);
  Alcotest.(check (list (pair string int)))
    "strict alternation"
    [ ("a", 1); ("b", 1); ("a", 2); ("b", 2); ("a", 3); ("b", 3) ]
    (List.rev !log)

let test_join_after_completion () =
  Fiber.run (fun () ->
      let f = Fiber.spawn (fun () -> ()) in
      (* let it finish first *)
      Fiber.yield ();
      Fiber.yield ();
      Fiber.join f;
      Alcotest.(check bool) "done" true (Fiber.state f = `Done))

let test_join_unblocks_all_joiners () =
  let joined = ref 0 in
  Fiber.run (fun () ->
      let slow =
        Fiber.spawn (fun () ->
            for _ = 1 to 5 do
              Fiber.yield ()
            done)
      in
      let joiners =
        List.init 3 (fun _ ->
            Fiber.spawn (fun () ->
                Fiber.join slow;
                incr joined))
      in
      List.iter Fiber.join joiners);
  Alcotest.(check int) "all three" 3 !joined

let test_spawn_nested () =
  let order = ref [] in
  Fiber.run (fun () ->
      let outer =
        Fiber.spawn (fun () ->
            order := `Outer :: !order;
            let inner = Fiber.spawn (fun () -> order := `Inner :: !order) in
            Fiber.join inner;
            order := `After :: !order)
      in
      Fiber.join outer);
  match List.rev !order with
  | [ `Outer; `Inner; `After ] -> ()
  | _ -> Alcotest.fail "wrong nesting order"

let test_fiber_ids_unique () =
  Fiber.run (fun () ->
      let a = Fiber.spawn (fun () -> ()) in
      let b = Fiber.spawn (fun () -> ()) in
      Alcotest.(check bool) "distinct" true (Fiber.id a <> Fiber.id b);
      Fiber.join a;
      Fiber.join b)

let test_run_outside_scheduler_raises () =
  match Fiber.live () with
  | exception Fiber.Not_in_scheduler -> ()
  | _ -> Alcotest.fail "live fiber count available outside run"

(* ---------- BLT coupling on real threads ---------- *)

let test_coupled_returns_value () =
  Fiber.run (fun () ->
      let f =
        Fiber.spawn (fun () ->
            Alcotest.(check int) "result" 42 (Blt_rt.coupled (fun () -> 42)))
      in
      Fiber.join f)

let test_coupled_runs_off_scheduler_thread () =
  Fiber.run (fun () ->
      let sched_tid = Thread.id (Thread.self ()) in
      let f =
        Fiber.spawn (fun () ->
            let kc_tid = Blt_rt.coupled (fun () -> Thread.id (Thread.self ())) in
            Alcotest.(check bool) "different OS thread" true (kc_tid <> sched_tid))
      in
      Fiber.join f)

let test_coupled_thread_is_consistent () =
  (* the real system-call-consistency property: every coupled section of
     one fiber executes on the same OS thread *)
  Fiber.run (fun () ->
      let f =
        Fiber.spawn (fun () ->
            let tids =
              List.init 5 (fun _ ->
                  Blt_rt.coupled (fun () -> Thread.id (Thread.self ())))
            in
            Alcotest.(check int) "one KC thread" 1
              (List.length (List.sort_uniq compare tids)))
      in
      Fiber.join f)

let test_distinct_fibers_distinct_kcs () =
  Fiber.run (fun () ->
      let tid_of = ref [] in
      let mk () =
        Fiber.spawn (fun () ->
            (* bind first: the read of !tid_of must happen after the
               suspension, not before (argument evaluation order) *)
            let tid = Blt_rt.coupled (fun () -> Thread.id (Thread.self ())) in
            tid_of := tid :: !tid_of)
      in
      let a = mk () and b = mk () in
      Fiber.join a;
      Fiber.join b;
      Alcotest.(check int) "two original KCs" 2
        (List.length (List.sort_uniq compare !tid_of)))

let test_scheduler_runs_others_while_coupled () =
  (* the whole point of BLT: a blocking coupled call must not stall the
     other fibers *)
  let progress = ref 0 in
  Fiber.run (fun () ->
      let blocker =
        Fiber.spawn (fun () ->
            Blt_rt.coupled (fun () ->
                (* real blocking syscall on the original KC *)
                Thread.delay 0.05))
      in
      let worker =
        Fiber.spawn (fun () ->
            (* keep yielding while the blocker is away *)
            for _ = 1 to 1000 do
              incr progress;
              Fiber.yield ()
            done)
      in
      Fiber.join worker;
      Fiber.join blocker);
  Alcotest.(check int) "worker never stalled" 1000 !progress

let test_coupled_exception_propagates () =
  Fiber.run (fun () ->
      let f =
        Fiber.spawn (fun () ->
            match Blt_rt.coupled (fun () -> failwith "inner") with
            | exception Blt_rt.Coupled_raised (Failure msg) ->
                Alcotest.(check string) "message carried" "inner" msg
            | exception e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e)
            | _ -> Alcotest.fail "no exception")
      in
      Fiber.join f)

let test_coupled_real_syscall () =
  Fiber.run (fun () ->
      let f =
        Fiber.spawn (fun () ->
            (* a real getpid via the Unix module, consistently *)
            let p1 = Blt_rt.coupled (fun () -> Unix.getpid ()) in
            let p2 = Blt_rt.coupled (fun () -> Unix.getpid ()) in
            Alcotest.(check int) "stable pid" p1 p2)
      in
      Fiber.join f)

let test_sleep_does_not_stall_scheduler () =
  let rounds = ref 0 in
  Fiber.run (fun () ->
      let sleeper =
        Fiber.spawn (fun () -> Blt_rt.coupled (fun () -> Thread.delay 0.03))
      in
      let worker =
        Fiber.spawn (fun () ->
            while Fiber.state sleeper <> `Done do
              incr rounds;
              Fiber.yield ()
            done)
      in
      Fiber.join sleeper;
      Fiber.join worker);
  Alcotest.(check bool)
    (Printf.sprintf "worker kept running (%d rounds)" !rounds)
    true (!rounds > 100)

let test_many_fibers_coupled_concurrently () =
  let results = ref [] in
  Fiber.run (fun () ->
      let fibers =
        List.init 8 (fun i ->
            Fiber.spawn (fun () ->
                let v = Blt_rt.coupled (fun () -> i * i) in
                let seen = !results in
                results := v :: seen))
      in
      List.iter Fiber.join fibers);
  Alcotest.(check (list int)) "all coupled calls returned"
    (List.init 8 (fun i -> i * i))
    (List.sort compare !results)

(* ---------- the parallel work-stealing engine ---------- *)

let test_par_invalid_domains () =
  match Fiber.run_parallel ~domains:0 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "domains:0 accepted"

(* Join results are deterministic whatever the interleaving: every
   fiber's effect lands, and joins see the finished values.  Run twice
   to catch schedule-dependent drift. *)
let par_square_batch ~domains ~fibers =
  let results = Array.make fibers (-1) in
  Fiber.run_parallel ~domains (fun () ->
      let fs =
        List.init fibers (fun i ->
            Fiber.spawn (fun () -> results.(i) <- i * i))
      in
      List.iter Fiber.join fs);
  Array.to_list results

let test_par_join_results_deterministic () =
  let expected = List.init 200 (fun i -> i * i) in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "first run, %d domains" domains)
        expected
        (par_square_batch ~domains ~fibers:200);
      Alcotest.(check (list int))
        (Printf.sprintf "second run, %d domains" domains)
        expected
        (par_square_batch ~domains ~fibers:200))
    [ 1; 2; 4 ]

let test_par_nested_spawn_and_yield () =
  let total = Atomic.make 0 in
  Fiber.run_parallel ~domains:4 (fun () ->
      let outers =
        List.init 8 (fun _ ->
            Fiber.spawn (fun () ->
                let inners =
                  List.init 8 (fun _ ->
                      Fiber.spawn (fun () ->
                          Fiber.yield ();
                          Atomic.incr total))
                in
                Fiber.yield ();
                List.iter Fiber.join inners;
                Atomic.incr total))
      in
      List.iter Fiber.join outers);
  Alcotest.(check int) "all fibers ran" 72 (Atomic.get total)

let test_par_exception_aborts_run () =
  match
    Fiber.run_parallel ~domains:2 (fun () ->
        let f = Fiber.spawn (fun () -> failwith "fiber exploded") in
        Fiber.join f)
  with
  | exception Failure msg ->
      Alcotest.(check string) "exn carried" "fiber exploded" msg
  | () -> Alcotest.fail "no exception"

let test_par_worker_index () =
  Fiber.run_parallel ~domains:2 (fun () ->
      match Fiber.worker_index () with
      | Some i -> Alcotest.(check bool) "index in range" true (i >= 0 && i < 2)
      | None -> Alcotest.fail "no worker index under run_parallel");
  Fiber.run (fun () ->
      Alcotest.(check (option int))
        "worker 0 under run" (Some 0) (Fiber.worker_index ()))

(* spawn_on delivers the child to the target worker's private inbox,
   which only that worker drains: the child's FIRST step runs on the
   requested worker (later steps may migrate by stealing -- placement
   is a start hint, not a pin).  Out-of-range ids wrap. *)
let test_par_spawn_on_placement () =
  Fiber.run_parallel ~domains:3 (fun () ->
      Alcotest.(check (option int))
        "num_workers under run_parallel" (Some 3) (Fiber.num_workers ());
      let fs =
        List.init 12 (fun i ->
            let target = i mod 3 in
            Fiber.spawn_on ~worker:target (fun () ->
                match Fiber.worker_index () with
                | Some w ->
                    if w <> target then
                      Alcotest.failf "started on worker %d, wanted %d" w target
                | None -> Alcotest.fail "no worker context in spawned fiber"))
      in
      List.iter Fiber.join fs;
      (* out-of-range worker ids wrap instead of raising *)
      let wrapped =
        Fiber.spawn_on ~worker:5 (fun () ->
            match Fiber.worker_index () with
            | Some w ->
                if w <> 5 mod 3 then
                  Alcotest.failf "worker 5 wrapped to %d, wanted %d" w (5 mod 3)
            | None -> Alcotest.fail "no worker context")
      in
      Fiber.join wrapped);
  Alcotest.(check (option int))
    "num_workers outside run_parallel" None (Fiber.num_workers ())

(* A token remembers the worker that parked its fiber: fired from a
   thread that is not a worker of the run, the wake goes to that
   worker's private inbox, so the fiber resumes where it parked.  Each
   round the child parks on worker 1, then the main fiber parks worker 0
   on top of the idle stack, so a wake that woke whichever worker idled
   last would resume the child on worker 0.  [park publish] parks the
   child and hands [publish] the function that wakes it; a helper
   systhread calls that function, waits for the wake to land, then wakes
   the main fiber.  Three sources: a raw token, the plain [suspend] wake
   function, and a coupled section's completion, sent by the child's KC
   once the helper lets the section return.  Worker 1 is launched by the
   [spawn_on] delivery even on a one-core host. *)
let foreign_wake_returns_home ~source ~park =
  let rounds = 5 in
  let seen = Array.make rounds (None, None) in
  let parked = Atomic.make None and threads = ref [] in
  Fiber.run_parallel ~domains:2 (fun () ->
      let child =
        Fiber.spawn_on ~worker:1 (fun () ->
            for i = 0 to rounds - 1 do
              let before = Fiber.worker_index () in
              park (fun fire -> Atomic.set parked (Some fire));
              seen.(i) <- (before, Fiber.worker_index ())
            done)
      in
      for _ = 1 to rounds do
        let rec await_parked () =
          match Atomic.exchange parked None with
          | Some fire -> fire
          | None ->
              Fiber.yield ();
              await_parked ()
        in
        let fire = await_parked () in
        (* let worker 1 reach its parker before this worker parks *)
        Unix.sleepf 0.002;
        Fiber.suspend (fun wake_main ->
            threads :=
              Thread.create
                (fun () ->
                  Thread.delay 0.005;
                  fire ();
                  Thread.delay 0.005;
                  wake_main ())
                ()
              :: !threads)
      done;
      Fiber.join child);
  List.iter Thread.join !threads;
  Array.iteri
    (fun i (before, after) ->
      Alcotest.(check (option int))
        (Printf.sprintf "%s: round %d parked on worker 1" source i)
        (Some 1) before;
      Alcotest.(check (option int))
        (Printf.sprintf "%s: round %d resumed on worker 1" source i)
        (Some 1) after)
    seen

let test_par_foreign_wake_returns_home () =
  foreign_wake_returns_home ~source:"token" ~park:(fun publish ->
      Fiber.suspend_token (fun tok ->
          publish (fun () -> ignore (Fiber.Wake.fire tok))));
  foreign_wake_returns_home ~source:"suspend" ~park:Fiber.suspend;
  foreign_wake_returns_home ~source:"coupled" ~park:(fun publish ->
      Blt_rt.coupled (fun () ->
          let go = Atomic.make false in
          publish (fun () -> Atomic.set go true);
          while not (Atomic.get go) do
            Thread.delay 0.0005
          done))

(* Regression for the scheduler-context thread gate: Domain.DLS is
   shared by EVERY systhread of a domain, so a raw thread created on a
   worker domain used to read the worker's context and could push to
   its single-owner deque from a foreign thread.  The context is keyed
   by thread identity now -- a non-worker thread must see none. *)
let test_par_foreign_thread_identity () =
  Fiber.run_parallel ~domains:2 (fun () ->
      let saw_index = ref (Some 99) and saw_workers = ref (Some 99) in
      let th =
        Thread.create
          (fun () ->
            saw_index := Fiber.worker_index ();
            saw_workers := Fiber.num_workers ())
          ()
      in
      Thread.join th;
      Alcotest.(check (option int))
        "foreign thread has no worker identity" None !saw_index;
      Alcotest.(check (option int))
        "foreign thread sees no worker count" None !saw_workers;
      (* the fiber itself still has its identity after the join *)
      match Fiber.worker_index () with
      | Some _ -> ()
      | None -> Alcotest.fail "fiber lost its worker context")

(* The multi-domain stresses run on as many domains as the host has
   cores, then on one more, so every host runs both the parallel and
   the oversubscribed schedule.  The bound keeps a many-core host's run
   small. *)
let stress_domains =
  let n = min 32 (Domain.recommended_domain_count ()) in
  [ n; n + 1 ]

(* The system-call-consistency property under migration: whatever
   domain a fiber's runnable half lands on after each suspension, its
   coupled sections always execute on the SAME original KC thread.
   Migration is schedule-dependent, so the property must hold either
   way.  The fibers only record what they saw; every assertion runs
   after [run_parallel] returns, because Alcotest's reporting is not
   domain-safe and the fibers run on several domains at once. *)
let test_par_executor_affinity_under_migration () =
  let fibers = 8 and rounds = 5 in
  List.iter
    (fun domains ->
      let tid0s = Array.make fibers (-1) and declared = Array.make fibers (-2) in
      let tids = Array.make_matrix fibers rounds (-1) in
      let lost_ctx = Array.make fibers false in
      Fiber.run_parallel ~domains (fun () ->
          let fs =
            List.init fibers (fun i ->
                Fiber.spawn (fun () ->
                    tid0s.(i) <-
                      Blt_rt.coupled (fun () -> Thread.id (Thread.self ()));
                    declared.(i) <- Blt_rt.original_kc_thread_id ();
                    for r = 0 to rounds - 1 do
                      if Fiber.worker_index () = None then lost_ctx.(i) <- true;
                      Fiber.yield ();
                      (* every post-suspension coupled call must land on
                         the same KC thread *)
                      tids.(i).(r) <-
                        Blt_rt.coupled (fun () -> Thread.id (Thread.self ()))
                    done))
          in
          List.iter Fiber.join fs);
      let at msg = Printf.sprintf "%s at %d domains" msg domains in
      for i = 0 to fibers - 1 do
        Alcotest.(check bool) (at "kept worker context") false lost_ctx.(i);
        Array.iter
          (fun tid -> Alcotest.(check int) (at "home KC stable") tid0s.(i) tid)
          tids.(i);
        Alcotest.(check int) (at "declared id matches") declared.(i) tid0s.(i)
      done)
    stress_domains

(* A coupled section returns its value, runs on a thread that is no
   worker of the run, and sees one pid across calls.  As above, the
   fiber records and the assertions run after [run_parallel]. *)
let test_par_coupled_runs_off_worker_domains () =
  List.iter
    (fun domains ->
      let value = ref 0 and on_worker = ref (Some (-1)) and pids = ref (0, 1) in
      Fiber.run_parallel ~domains (fun () ->
          Fiber.join
            (Fiber.spawn (fun () ->
                 value := Blt_rt.coupled (fun () -> 41);
                 on_worker := Blt_rt.coupled Fiber.worker_index;
                 let p1 = Blt_rt.coupled Unix.getpid in
                 pids := (p1, Blt_rt.coupled Unix.getpid))));
      let at msg = Printf.sprintf "%s at %d domains" msg domains in
      Alcotest.(check int) (at "coupled value") 41 !value;
      Alcotest.(check (option int)) (at "section off the workers") None !on_worker;
      Alcotest.(check int) (at "stable pid") (fst !pids) (snd !pids))
    stress_domains

(* A bounded FIFO for the traffic tests: the queue under one
   [Sync.Mutex], and one [Sync.Condition] that senders waiting for room
   and receivers waiting for an item share, so every change broadcasts.
   [recv] returns [None] once the box is closed and drained. *)
module Box = struct
  module Sync = Fiber_rt.Sync

  type 'a t = {
    lock : Sync.Mutex.t;
    changed : Sync.Condition.t;
    items : 'a Queue.t;
    capacity : int;
    mutable closed : bool;
  }

  let create capacity =
    {
      lock = Sync.Mutex.create ();
      changed = Sync.Condition.create ();
      items = Queue.create ();
      capacity;
      closed = false;
    }

  let send t v =
    Sync.Mutex.with_lock t.lock (fun () ->
        while Queue.length t.items >= t.capacity do
          Sync.Condition.wait t.changed t.lock
        done;
        Queue.push v t.items);
    Sync.Condition.broadcast t.changed

  let recv t =
    let v =
      Sync.Mutex.with_lock t.lock (fun () ->
          while Queue.is_empty t.items && not t.closed do
            Sync.Condition.wait t.changed t.lock
          done;
          Queue.take_opt t.items)
    in
    Sync.Condition.broadcast t.changed;
    v

  let close t =
    Sync.Mutex.with_lock t.lock (fun () -> t.closed <- true);
    Sync.Condition.broadcast t.changed

  let rec iter t ~f =
    match recv t with
    | Some v ->
        f v;
        iter t ~f
    | None -> ()
end

(* The big one: N fibers x M domains, each fiber doing a seeded random
   mix of yield / nested spawn+join / [Box] traffic / coupled
   sections.  Whatever the interleaving: every fiber completes exactly
   once, every message is accounted for, and the whole thing
   finishes in bounded time.  The per-fiber
   RNG streams derive from [Test_seed.seed], so a red run reproduces
   with TEST_SEED=<printed seed>. *)
let mixed_traffic_stress domains =
  let n = 48 and steps = 25 in
  let t0 = Unix.gettimeofday () in
  let completions = Atomic.make 0 in
  let children = Atomic.make 0 in
  let received = Atomic.make 0 in
  let sent = Atomic.make 0 in
  Fiber.run_parallel ~domains (fun () ->
      let box = Box.create 8 in
      let consumer =
        Fiber.spawn (fun () -> Box.iter box ~f:(fun _ -> Atomic.incr received))
      in
      let fs =
        List.init n (fun i ->
            Fiber.spawn (fun () ->
                let rng = Test_seed.derived_state i in
                for _ = 1 to steps do
                  match Random.State.int rng 4 with
                  | 0 -> Fiber.yield ()
                  | 1 ->
                      Atomic.incr children;
                      let child =
                        Fiber.spawn (fun () ->
                            Fiber.yield ();
                            Atomic.incr completions)
                      in
                      Fiber.join child
                  | 2 ->
                      Atomic.incr sent;
                      Box.send box i
                  | _ -> ignore (Blt_rt.coupled (fun () -> ()))
                done;
                Atomic.incr completions))
      in
      List.iter Fiber.join fs;
      Box.close box;
      Fiber.join consumer);
  let dt = Unix.gettimeofday () -. t0 in
  let msg what =
    Printf.sprintf "%s (domains=%d, TEST_SEED=%d to reproduce)" what domains
      Test_seed.seed
  in
  Alcotest.(check int)
    (msg "every fiber and child completed exactly once")
    (n + Atomic.get children)
    (Atomic.get completions);
  Alcotest.(check int)
    (msg "no lost or duplicated messages")
    (Atomic.get sent) (Atomic.get received);
  Alcotest.(check bool)
    (msg (Printf.sprintf "bounded runtime (%.2fs)" dt))
    true (dt < 30.0)

let test_par_mixed_traffic_stress () = List.iter mixed_traffic_stress stress_domains

(* Lost/dup completion accounting needs an exact count: run the same
   seeded traffic but tally children deterministically. *)
let stress_exact_completions domains =
  let n = 32 and steps = 20 in
  (* precompute each fiber's op sequence from its seeded stream, so the
     expected completion count is known before the parallel run *)
  let plans =
    Array.init n (fun i ->
        let rng = Test_seed.derived_state (1000 + i) in
        Array.init steps (fun _ -> Random.State.int rng 3))
  in
  let expected_children =
    Array.fold_left
      (fun acc plan ->
        acc + Array.fold_left (fun a op -> if op = 1 then a + 1 else a) 0 plan)
      0 plans
  in
  let completions = Atomic.make 0 in
  Fiber.run_parallel ~domains (fun () ->
      let fs =
        List.init n (fun i ->
            Fiber.spawn (fun () ->
                Array.iter
                  (fun op ->
                    match op with
                    | 0 -> Fiber.yield ()
                    | 1 ->
                        let child =
                          Fiber.spawn (fun () ->
                              Fiber.yield ();
                              Atomic.incr completions)
                        in
                        Fiber.join child
                    | _ -> ignore (Blt_rt.coupled (fun () -> ())))
                  plans.(i);
                Atomic.incr completions))
      in
      List.iter Fiber.join fs);
  Alcotest.(check int)
    (Printf.sprintf
       "every fiber and child completed exactly once (domains=%d, TEST_SEED=%d)"
       domains Test_seed.seed)
    (n + expected_children) (Atomic.get completions)

let test_par_stress_exact_completions () =
  List.iter stress_exact_completions stress_domains

(* Pool churn: an oversubscribed run (domains = 4, regardless of host
   cores) alternating seeded parallel bursts, quiet sequential
   stretches (idle workers park), and waves of foreign wakes from
   short-lived OS threads (each one goes to the inbox of the worker
   that parked the main fiber and un-parks at most that worker; on a
   small host the workers beyond its cores are never launched).  The pool must keep every
   completion exactly once through the whole park/wake cycle, and the
   run's telemetry must be sane. *)
let test_par_elastic_collapse_stress () =
  let domains = 4 and rounds = 5 in
  let rng = Test_seed.derived_state 7777 in
  let bursts = Array.init rounds (fun _ -> 8 + Random.State.int rng 25) in
  let expected = Array.fold_left ( + ) 0 bursts in
  let completions = Atomic.make 0 in
  let stats = ref None in
  let mid_snapshot_ok = ref false in
  let t0 = Unix.gettimeofday () in
  Fiber.run_parallel ~domains
    ~on_stats:(fun s -> stats := Some s)
    (fun () ->
      Array.iter
        (fun burst ->
          (* parallel burst: fan out, join all *)
          let fs =
            List.init burst (fun _ ->
                Fiber.spawn (fun () ->
                    for _ = 1 to 3 do
                      Fiber.yield ()
                    done;
                    Atomic.incr completions))
          in
          List.iter Fiber.join fs;
          (* quiet stretch: only this fiber runs; idle workers park *)
          for _ = 1 to 200 do
            Fiber.yield ()
          done;
          (* foreign wakes: 80 external threads resume this fiber
             through its home worker's inbox, each waking that worker
             if it is parked *)
          let pending = ref [] in
          for _ = 1 to 80 do
            Fiber.suspend (fun wake ->
                pending := Thread.create (fun () -> wake ()) () :: !pending)
          done;
          List.iter Thread.join !pending)
        bursts;
      match Fiber.sched_stats () with
      | Some s ->
          mid_snapshot_ok :=
            s.Fiber.Sched_stats.domains = domains
            && s.Fiber.Sched_stats.active_now >= 1
            && s.Fiber.Sched_stats.active_now <= domains
      | None -> ());
  let dt = Unix.gettimeofday () -. t0 in
  let msg what =
    Printf.sprintf "%s (TEST_SEED=%d to reproduce)" what Test_seed.seed
  in
  Alcotest.(check int)
    (msg "every burst fiber completed exactly once")
    expected (Atomic.get completions);
  Alcotest.(check bool) (msg "mid-run sched_stats sane") true !mid_snapshot_ok;
  (match !stats with
  | None -> Alcotest.fail (msg "on_stats not called")
  | Some s ->
      let open Fiber.Sched_stats in
      Alcotest.(check int) (msg "telemetry domains") domains s.domains;
      let p50 = active_p50 s in
      Alcotest.(check bool)
        (msg (Printf.sprintf "active_p50 %d within [1, %d]" p50 domains))
        true
        (p50 >= 1 && p50 <= domains);
      Alcotest.(check bool)
        (msg "target within [1, domains]")
        true
        (s.target_now >= 1 && s.target_now <= domains);
      Alcotest.(check bool)
        (msg "steal_fail_rate within [0, 1]")
        true
        (let r = steal_fail_rate s in
         r >= 0.0 && r <= 1.0);
      Alcotest.(check bool)
        (msg "active-worker histogram sampled")
        true
        (Array.fold_left ( + ) 0 s.active_hist > 0));
  Alcotest.(check bool)
    (msg (Printf.sprintf "bounded runtime (%.2fs)" dt))
    true (dt < 30.0)

(* Lazy launch: workers beyond the host's cores start unlaunched, and
   only a delivery aimed at one of them ([spawn_on]) spawns its domain.
   [domains = cores + 2] keeps two workers unlaunched on any host. *)
let test_par_lazy_launch () =
  let cores = Domain.recommended_domain_count () in
  let domains = cores + 2 in
  let eager = min domains cores in
  let active () =
    match Fiber.sched_stats () with
    | Some s -> s.Fiber.Sched_stats.active_now
    | None -> -1
  in
  let before = ref (-1) and after = ref (-1) and ran_on = ref None in
  Fiber.run_parallel ~domains (fun () ->
      before := active ();
      Fiber.join
        (Fiber.spawn_on ~worker:(domains - 1) (fun () ->
             ran_on := Fiber.worker_index ()));
      after := active ());
  Alcotest.(check int) "launched before any spawn_on" eager !before;
  Alcotest.(check (option int))
    "child ran on the targeted worker" (Some (domains - 1)) !ran_on;
  Alcotest.(check int) "spawn_on launched one more worker" (eager + 1) !after

let prop_par_spawn_tree_completes =
  QCheck.Test.make ~name:"parallel: n fibers of k yields all finish" ~count:10
    QCheck.(triple (int_range 1 4) (int_range 1 12) (int_range 0 8))
    (fun (domains, n, k) ->
      let finished = Atomic.make 0 in
      Fiber.run_parallel ~domains (fun () ->
          let fs =
            List.init n (fun _ ->
                Fiber.spawn (fun () ->
                    for _ = 1 to k do
                      Fiber.yield ()
                    done;
                    Atomic.incr finished))
          in
          List.iter Fiber.join fs);
      Atomic.get finished = n)

(* ---------- lock-free completion ---------- *)

module Completion = Fiber_rt.Completion

(* Raw cross-domain stress on the completion cell: M domains race their
   add_joiner against one finisher; every wake must fire exactly once,
   whether the joiner's CAS landed before the finisher's exchange or
   lost against Done and self-woke. *)
let test_completion_cross_domain_stress () =
  let rounds = 50 and joiners = 4 in
  for _ = 1 to rounds do
    let c = Completion.create () in
    let woken = Atomic.make 0 in
    let doms =
      Array.init joiners (fun _ ->
          Domain.spawn (fun () ->
              let mine = Atomic.make 0 in
              Completion.add_joiner c (fun () ->
                  Atomic.incr mine;
                  Atomic.incr woken);
              while Atomic.get mine = 0 do
                Domain.cpu_relax ()
              done;
              Atomic.get mine))
    in
    Completion.finish c ();
    let per_joiner = Array.map Domain.join doms in
    Alcotest.(check int) "all joiners woken" joiners (Atomic.get woken);
    Array.iter
      (fun n -> Alcotest.(check int) "woken exactly once" 1 n)
      per_joiner;
    Alcotest.(check bool) "done sticks" true (Completion.is_done c)
  done

(* The same protocol end to end through the scheduler: N fibers join one
   target across M domains, racing the target's finish_fiber.  A lost
   wake would hang the run; a double wake would over-count. *)
let join_stress domains =
  let joiners = 64 and rounds = 10 in
  for _ = 1 to rounds do
    let woken = Atomic.make 0 in
    Fiber.run_parallel ~domains (fun () ->
        let target =
          Fiber.spawn (fun () ->
              for _ = 1 to 3 do
                Fiber.yield ()
              done)
        in
        let js =
          List.init joiners (fun _ ->
              Fiber.spawn (fun () ->
                  Fiber.join target;
                  Atomic.incr woken))
        in
        List.iter Fiber.join js);
    Alcotest.(check int)
      (Printf.sprintf "every joiner resumed exactly once (domains=%d)" domains)
      joiners (Atomic.get woken)
  done

let test_par_join_stress () = List.iter join_stress stress_domains

(* Foreign-thread wake-ups must resume in arrival order: a foreign
   domain's wakes land in worker 0's inbox, whose batches drain into the
   private overflow FIFO, so wakes delivered 0..k-1 resume 0..k-1 (a
   batch pushed onto the LIFO deque would come out reversed). *)
let test_par_injected_fifo_order () =
  let k = 8 in
  let order = ref [] in
  Fiber.run_parallel ~domains:1 (fun () ->
      let wakes = Array.make k (fun () -> ()) in
      let registered = Atomic.make 0 in
      let fs =
        List.init k (fun i ->
            Fiber.spawn (fun () ->
                Fiber.suspend (fun wake ->
                    wakes.(i) <- wake;
                    Atomic.incr registered);
                order := i :: !order))
      in
      (* a foreign domain: its wakes drain from worker 0's inbox *)
      let waker =
        Domain.spawn (fun () ->
            while Atomic.get registered < k do
              Domain.cpu_relax ()
            done;
            Array.iter (fun wake -> wake ()) wakes)
      in
      List.iter Fiber.join fs;
      Domain.join waker);
  Alcotest.(check (list int))
    "injected wake-ups resume in arrival order"
    (List.init k Fun.id) (List.rev !order)

(* ---------- properties ---------- *)

(* A [Box] is a bounded channel: whatever its capacity, one sender and
   one receiver see every item once, in order, under one worker. *)
let prop_box_preserves_all_items =
  QCheck.Test.make ~name:"channel delivers every item exactly once" ~count:30
    QCheck.(pair (int_range 1 4) (list_of_size (Gen.int_range 0 30) small_nat))
    (fun (capacity, items) ->
      let got = ref [] in
      Fiber.run (fun () ->
          let box = Box.create capacity in
          let p =
            Fiber.spawn (fun () ->
                List.iter (Box.send box) items;
                Box.close box)
          in
          let c =
            Fiber.spawn (fun () -> Box.iter box ~f:(fun v -> got := v :: !got))
          in
          Fiber.join p;
          Fiber.join c);
      List.rev !got = items)

let prop_yield_count_independent_of_interleaving =
  QCheck.Test.make ~name:"n fibers of k yields all finish" ~count:20
    QCheck.(pair (int_range 1 6) (int_range 0 10))
    (fun (n, k) ->
      let finished = ref 0 in
      Fiber.run (fun () ->
          let fs =
            List.init n (fun _ ->
                Fiber.spawn (fun () ->
                    for _ = 1 to k do
                      Fiber.yield ()
                    done;
                    incr finished))
          in
          List.iter Fiber.join fs);
      !finished = n)

(* All qcheck properties draw from the shared [Test_seed.seed], so any
   counterexample reproduces with TEST_SEED=<n>. *)
let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Test_seed.rand_state ()) t

(* ---------- the KC pool: lease on first couple, push back at finish ---------- *)

let kc_tid () = Blt_rt.coupled (fun () -> Thread.id (Thread.self ()))

(* Fibers that couple one after another reuse one KC instead of each
   leaving an OS thread behind: a finished fiber's KC is back in the
   pool before the next fiber is spawned. *)
let test_pool_sequential_reuse () =
  let tids = ref [] in
  Fiber.run_parallel ~domains:2 (fun () ->
      for _ = 1 to 200 do
        Fiber.join (Fiber.spawn (fun () -> tids := kc_tid () :: !tids))
      done);
  Alcotest.(check int) "200 coupled sections" 200 (List.length !tids);
  let distinct = List.length (List.sort_uniq compare !tids) in
  if distinct <> 1 then
    Alcotest.failf "200 sequential fibers used %d KC threads, want 1" distinct

(* Live fibers never share a KC, and each keeps its own across
   suspensions and migrations.  Every fiber stays alive until all of
   them have coupled once, so all leases overlap. *)
let test_pool_live_isolation () =
  let k = 8 in
  let first = Array.make k (-1) and second = Array.make k (-2) in
  let coupled_once = Atomic.make 0 in
  Fiber.run_parallel ~domains:2 (fun () ->
      let fs =
        List.init k (fun i ->
            Fiber.spawn (fun () ->
                first.(i) <- kc_tid ();
                Atomic.incr coupled_once;
                while Atomic.get coupled_once < k do
                  Fiber.yield ()
                done;
                second.(i) <- kc_tid ()))
      in
      List.iter Fiber.join fs);
  Alcotest.(check int) "K distinct KCs" k
    (List.length (List.sort_uniq compare (Array.to_list first)));
  Array.iteri
    (fun i tid -> Alcotest.(check int) "same KC both times" tid second.(i))
    first

(* A KC is a systhread of the leasing worker's domain.  Beside a fiber
   that computes and yields, a coupled section used to wait for the
   50 ms systhread tick; the worker now hands its runtime lock over at
   every fiber switch. *)
let test_pool_coupled_beside_busy_fiber () =
  let domain_counts =
    if Domain.recommended_domain_count () >= 2 then [ 1; 2 ] else [ 1 ]
  in
  List.iter
    (fun domains ->
      let lat =
        Workload.Par_workload.coupled_latencies ~domains ~busy:1 ~calls:200
      in
      Array.sort compare lat;
      let median = lat.(Array.length lat / 2) in
      if median >= 0.005 then
        Alcotest.failf "coupled getpid beside a busy fiber at domains=%d: \
                        median %.1f us, want < 5 ms"
          domains (median *. 1e6))
    domain_counts

(* OS context switches this process has made so far: voluntary plus
   nonvoluntary, summed over its live threads. *)
let ctx_switches () =
  let count acc line =
    match Scanf.sscanf_opt line "%s@: %d" (fun k v -> (k, v)) with
    | Some (("voluntary_ctxt_switches" | "nonvoluntary_ctxt_switches"), v) ->
        acc + v
    | _ -> acc
  in
  let of_task acc tid =
    let status = Printf.sprintf "/proc/self/task/%s/status" tid in
    match In_channel.with_open_text status In_channel.input_all with
    | exception Sys_error _ -> acc (* the thread exited meanwhile *)
    | text -> List.fold_left count acc (String.split_on_char '\n' text)
  in
  Array.fold_left of_task 0 (Sys.readdir "/proc/self/task")

(* A coupled round trip on a lone worker is two handoffs, as the
   paper's BLOCKING policy has it: the worker parks and wakes its KC,
   the KC parks and wakes the worker.  Each wake is issued only after
   the waker has released the domain's runtime lock, so neither woken
   thread blocks on that lock again.  Asserted where the host gives the
   run one CPU (a pinned run); elsewhere the two threads may sit on
   different CPUs and the count is only printed. *)
let test_pool_switches_per_coupled_call () =
  let calls = 2000 in
  let per_call = ref 0.0 in
  Fiber.run (fun () ->
      (* lease the KC first, so its creation is not counted *)
      ignore (Blt_rt.coupled Unix.getpid);
      let s0 = ctx_switches () in
      for _ = 1 to calls do
        Fiber.join (Fiber.spawn (fun () -> ignore (Blt_rt.coupled Unix.getpid)))
      done;
      per_call := float_of_int (ctx_switches () - s0) /. float_of_int calls);
  Printf.printf "coupled getpid: %.2f OS context switches per call\n%!" !per_call;
  if Domain.recommended_domain_count () = 1 && !per_call > 3.0 then
    Alcotest.failf "coupled getpid on one CPU: %.2f context switches per call, want <= 3"
      !per_call

let () =
  Test_seed.announce "test_fiber_rt";
  Alcotest.run "fiber_rt"
    [
      ( "atomic_deque",
        [
          Alcotest.test_case "owner LIFO, thief FIFO" `Quick
            test_adq_owner_lifo_thief_fifo;
          Alcotest.test_case "grow preserves items" `Quick
            test_adq_grow_preserves_items;
          Alcotest.test_case "multi-domain stress" `Quick
            test_adq_multi_domain_stress;
          Alcotest.test_case "steal-half batch semantics" `Quick
            test_adq_steal_batch_semantics;
          Alcotest.test_case "steal-half multi-domain stress" `Quick
            test_adq_steal_batch_stress;
        ] );
      ( "completion",
        [
          Alcotest.test_case "cross-domain wake exactly once" `Quick
            test_completion_cross_domain_stress;
        ] );
      ( "mpsc",
        [
          Alcotest.test_case "fifo batches" `Quick test_mpsc_fifo_batches;
          Alcotest.test_case "multi-producer" `Quick test_mpsc_multi_producer;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "invalid domains" `Quick test_par_invalid_domains;
          Alcotest.test_case "deterministic joins" `Quick
            test_par_join_results_deterministic;
          Alcotest.test_case "nested spawn + yield" `Quick
            test_par_nested_spawn_and_yield;
          Alcotest.test_case "exception aborts run" `Quick
            test_par_exception_aborts_run;
          Alcotest.test_case "worker index" `Quick test_par_worker_index;
          Alcotest.test_case "spawn_on placement + num_workers" `Quick
            test_par_spawn_on_placement;
          Alcotest.test_case "foreign thread has no worker identity" `Quick
            test_par_foreign_thread_identity;
          Alcotest.test_case "a foreign wake returns to the parking worker"
            `Quick test_par_foreign_wake_returns_home;
          Alcotest.test_case "executor affinity under migration" `Quick
            test_par_executor_affinity_under_migration;
          Alcotest.test_case "coupled off workers" `Quick
            test_par_coupled_runs_off_worker_domains;
          Alcotest.test_case "mixed-traffic stress" `Quick
            test_par_mixed_traffic_stress;
          Alcotest.test_case "stress: exact completion accounting" `Quick
            test_par_stress_exact_completions;
          Alcotest.test_case "stress: joiners race finish across domains"
            `Quick test_par_join_stress;
          Alcotest.test_case "stress: elastic collapse and re-expand" `Quick
            test_par_elastic_collapse_stress;
          Alcotest.test_case "lazy launch: spawn_on starts an unlaunched worker"
            `Quick test_par_lazy_launch;
          Alcotest.test_case "injected wake-ups keep FIFO order" `Quick
            test_par_injected_fifo_order;
          qcheck prop_par_spawn_tree_completes;
        ] );
      ( "fibers",
        [
          Alcotest.test_case "interleave" `Quick test_fibers_interleave;
          Alcotest.test_case "join after done" `Quick test_join_after_completion;
          Alcotest.test_case "multiple joiners" `Quick
            test_join_unblocks_all_joiners;
          Alcotest.test_case "nested spawn" `Quick test_spawn_nested;
          Alcotest.test_case "unique ids" `Quick test_fiber_ids_unique;
          Alcotest.test_case "no ambient scheduler" `Quick
            test_run_outside_scheduler_raises;
        ] );
      ( "coupling",
        [
          Alcotest.test_case "returns value" `Quick test_coupled_returns_value;
          Alcotest.test_case "off scheduler thread" `Quick
            test_coupled_runs_off_scheduler_thread;
          Alcotest.test_case "thread consistency" `Quick
            test_coupled_thread_is_consistent;
          Alcotest.test_case "distinct KCs" `Quick
            test_distinct_fibers_distinct_kcs;
          Alcotest.test_case "non-blocking scheduler" `Quick
            test_scheduler_runs_others_while_coupled;
          Alcotest.test_case "exception propagates" `Quick
            test_coupled_exception_propagates;
          Alcotest.test_case "real syscall" `Quick test_coupled_real_syscall;
          Alcotest.test_case "sleep keeps scheduler live" `Quick
            test_sleep_does_not_stall_scheduler;
          Alcotest.test_case "many coupled fibers" `Quick
            test_many_fibers_coupled_concurrently;
        ] );
      ( "kc pool",
        [
          Alcotest.test_case "sequential reuse" `Quick
            test_pool_sequential_reuse;
          Alcotest.test_case "live isolation" `Quick test_pool_live_isolation;
          Alcotest.test_case "coupled beside a busy fiber" `Quick
            test_pool_coupled_beside_busy_fiber;
          Alcotest.test_case "two context switches per coupled call" `Quick
            test_pool_switches_per_coupled_call;
        ] );
      ( "properties",
        [
          qcheck prop_yield_count_independent_of_interleaving;
          qcheck prop_box_preserves_all_items;
        ] );
    ]
