(* Tests for the user-level thread substrate: contexts (creation,
   yield, park, migration between resuming KCs), ready queues, the
   work-stealing deque, and the plain ULT scheduler. *)

module Context = Ult.Context
module Rq = Ult.Run_queue
module Wsd = Ult.Ws_deque
module Scheduler = Ult.Scheduler
module H = Workload.Harness
open Oskernel

let wallaby = Arch.Machines.wallaby

(* ---------- context ---------- *)

let test_context_runs_to_completion () =
  let hits = ref 0 in
  let uc = Context.make (fun () -> incr hits) in
  Alcotest.(check bool) "created" true (Context.status uc = Context.Created);
  (match Context.resume uc with
  | Context.Finished -> ()
  | _ -> Alcotest.fail "expected Finished");
  Alcotest.(check int) "body ran" 1 !hits;
  Alcotest.(check bool) "done" true (Context.is_done uc)

let test_context_yield_roundtrip () =
  let log = ref [] in
  let uc =
    Context.make (fun () ->
        log := `A :: !log;
        Context.yield ();
        log := `B :: !log;
        Context.yield ();
        log := `C :: !log)
  in
  (match Context.resume uc with
  | Context.Yielded -> ()
  | _ -> Alcotest.fail "expected yield 1");
  Alcotest.(check int) "one step" 1 (List.length !log);
  (match Context.resume uc with
  | Context.Yielded -> ()
  | _ -> Alcotest.fail "expected yield 2");
  (match Context.resume uc with
  | Context.Finished -> ()
  | _ -> Alcotest.fail "expected finish");
  Alcotest.(check int) "three steps" 3 (List.length !log);
  Alcotest.(check int) "resume count" 3 (Context.steps uc)

let test_context_park_callback_runs_after_suspend () =
  let order = ref [] in
  let uc =
    Context.make (fun () ->
        Context.park ~after_suspend:(fun () -> order := `Callback :: !order);
        order := `Resumed :: !order)
  in
  (match Context.resume uc with
  | Context.Parked cb ->
      Alcotest.(check bool) "suspended" true
        (Context.status uc = Context.Suspended);
      cb ()
  | _ -> Alcotest.fail "expected park");
  (match Context.resume uc with
  | Context.Finished -> ()
  | _ -> Alcotest.fail "expected finish");
  Alcotest.(check (list bool)) "callback before resume"
    [ true; true ]
    (List.rev_map (fun x -> x = `Callback || x = `Resumed) !order);
  match List.rev !order with
  | [ `Callback; `Resumed ] -> ()
  | _ -> Alcotest.fail "wrong order"

let test_context_double_resume_rejected () =
  let uc = Context.make (fun () -> ()) in
  ignore (Context.resume uc);
  match Context.resume uc with
  | exception Context.Not_resumable _ -> ()
  | _ -> Alcotest.fail "resumed a finished context"

let test_context_self () =
  let captured = ref None in
  let uc = Context.make (fun () -> captured := Some (Context.self ())) in
  ignore (Context.resume uc);
  match !captured with
  | Some self -> Alcotest.(check int) "self is itself" (Context.id uc) (Context.id self)
  | None -> Alcotest.fail "no self"

let test_context_migrates_between_resumers () =
  (* the decoupling property: a context suspended under one simulated KC
     resumes correctly under another *)
  H.run ~cost:wallaby (fun env ->
      let k = env.H.kernel in
      let phases = ref [] in
      let uc =
        Context.make (fun () ->
            phases := `P1 :: !phases;
            Context.yield ();
            phases := `P2 :: !phases;
            Context.yield ();
            phases := `P3 :: !phases)
      in
      let step name cpu =
        Kernel.spawn k ~name ~cpu (fun _task -> ignore (Context.resume uc))
      in
      let a = step "kc-a" 0 in
      ignore (Kernel.waitpid k env.H.root a);
      let b = step "kc-b" 1 in
      ignore (Kernel.waitpid k env.H.root b);
      let c = step "kc-c" 0 in
      ignore (Kernel.waitpid k env.H.root c);
      Alcotest.(check int) "three phases" 3 (List.length !phases);
      Alcotest.(check bool) "finished" true (Context.is_done uc))

let test_context_names_and_ids_unique () =
  let a = Context.make (fun () -> ()) in
  let b = Context.make (fun () -> ()) in
  Alcotest.(check bool) "distinct ids" true (Context.id a <> Context.id b)

(* ---------- run queue ---------- *)

let test_rq_fifo () =
  let q = Rq.create () in
  Rq.enqueue q 1;
  Rq.enqueue q 2;
  Rq.enqueue q 3;
  Alcotest.(check (option int)) "first" (Some 1) (Rq.dequeue q);
  Alcotest.(check (option int)) "second" (Some 2) (Rq.dequeue q);
  Alcotest.(check int) "length" 1 (Rq.length q);
  Alcotest.(check int) "enqueues counted" 3 (Rq.enqueues q);
  Alcotest.(check int) "dequeues counted" 2 (Rq.dequeues q)

let test_rq_empty () =
  let q = Rq.create () in
  Alcotest.(check bool) "empty" true (Rq.is_empty q);
  Alcotest.(check (option int)) "dequeue none" None (Rq.dequeue q)

let test_rq_filter () =
  let q = Rq.create () in
  List.iter (Rq.enqueue q) [ 1; 2; 3; 4; 5 ];
  Rq.filter_inplace q (fun x -> x mod 2 = 0);
  Alcotest.(check (list int)) "evens kept in order" [ 2; 4 ] (Rq.to_list q)

(* ---------- work-stealing deque ---------- *)

let test_wsd_lifo_owner () =
  let d = Wsd.create ~dummy:0 in
  Wsd.push d 1;
  Wsd.push d 2;
  Wsd.push d 3;
  Alcotest.(check (option int)) "owner pops newest" (Some 3) (Wsd.pop d);
  Alcotest.(check (option int)) "then next" (Some 2) (Wsd.pop d)

let test_wsd_fifo_thief () =
  let d = Wsd.create ~dummy:0 in
  Wsd.push d 1;
  Wsd.push d 2;
  Wsd.push d 3;
  Alcotest.(check (option int)) "thief steals oldest" (Some 1) (Wsd.steal d);
  Alcotest.(check (option int)) "owner still pops newest" (Some 3) (Wsd.pop d);
  Alcotest.(check int) "steal count" 1 (Wsd.steals d)

let test_wsd_growth () =
  let d = Wsd.create ~dummy:(-1) in
  for i = 1 to 100 do
    Wsd.push d i
  done;
  Alcotest.(check int) "length" 100 (Wsd.length d);
  let seen = ref [] in
  let rec drain () =
    match Wsd.steal d with
    | Some x ->
        seen := x :: !seen;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "fifo order preserved across growth"
    (List.init 100 (fun i -> i + 1))
    (List.rev !seen)

let test_wsd_empty () =
  let d = Wsd.create ~dummy:0 in
  Alcotest.(check (option int)) "pop empty" None (Wsd.pop d);
  Alcotest.(check (option int)) "steal empty" None (Wsd.steal d)

(* ---------- scheduler ---------- *)

let test_scheduler_runs_all () =
  H.run ~cost:wallaby (fun env ->
      let k = env.H.kernel in
      let done_count = ref 0 in
      let t =
        Kernel.spawn k ~name:"sched" ~cpu:0 (fun task ->
            let s = Scheduler.create k task in
            for i = 1 to 5 do
              Scheduler.add s
                (Context.make ~name:(Printf.sprintf "w%d" i) (fun () ->
                     Context.yield ();
                     incr done_count))
            done;
            Alcotest.(check bool) "completed" true (Scheduler.run_to_completion s))
      in
      ignore (Kernel.waitpid k env.H.root t);
      Alcotest.(check int) "all finished" 5 !done_count)

let test_scheduler_charges_switch () =
  let elapsed =
    H.run ~cost:wallaby (fun env ->
        let k = env.H.kernel in
        let result = ref nan in
        let t =
          Kernel.spawn k ~name:"sched" ~cpu:0 (fun task ->
              let s = Scheduler.create k task in
              Scheduler.add s (Context.make (fun () -> ()));
              let t0 = Kernel.now k in
              ignore (Scheduler.run_to_completion s);
              result := Kernel.now k -. t0)
        in
        ignore (Kernel.waitpid k env.H.root t);
        !result)
  in
  let expected =
    wallaby.Arch.Cost_model.uctx_switch
    +. wallaby.Arch.Cost_model.ult_sched_overhead
  in
  Alcotest.(check bool)
    (Printf.sprintf "one dispatch cost (got %.3e)" elapsed)
    true
    (Float.abs (elapsed -. expected) < 1e-12)

let test_scheduler_work_stealing () =
  H.run ~cost:wallaby (fun env ->
      let k = env.H.kernel in
      let t =
        Kernel.spawn k ~name:"sched" ~cpu:0 (fun task ->
            let victim = Scheduler.create ~policy:Scheduler.Lifo_ws k task in
            Scheduler.add victim (Context.make (fun () -> ()));
            Scheduler.add victim (Context.make (fun () -> ()));
            (match Scheduler.steal victim with
            | Some uc -> Alcotest.(check bool) "stole one" true (not (Context.is_done uc))
            | None -> Alcotest.fail "steal failed");
            Alcotest.(check int) "one left" 1 (Scheduler.pending victim))
      in
      ignore (Kernel.waitpid k env.H.root t))

let test_scheduler_fifo_never_steals () =
  H.run ~cost:wallaby (fun env ->
      let k = env.H.kernel in
      let t =
        Kernel.spawn k ~name:"sched" ~cpu:0 (fun task ->
            let s = Scheduler.create ~policy:Scheduler.Fifo k task in
            Scheduler.add s (Context.make (fun () -> ()));
            Alcotest.(check bool) "fifo refuses steal" true
              (Scheduler.steal s = None))
      in
      ignore (Kernel.waitpid k env.H.root t))

let test_scheduler_on_switch_hook () =
  H.run ~cost:wallaby (fun env ->
      let k = env.H.kernel in
      let seen = ref [] in
      let t =
        Kernel.spawn k ~name:"sched" ~cpu:0 (fun task ->
            let s =
              Scheduler.create
                ~on_switch:(fun uc -> seen := Context.name uc :: !seen)
                k task
            in
            Scheduler.add s (Context.make ~name:"x" (fun () -> Context.yield ()));
            ignore (Scheduler.run_to_completion s))
      in
      ignore (Kernel.waitpid k env.H.root t);
      (* two dispatches: initial + after yield *)
      Alcotest.(check (list string)) "hook per dispatch" [ "x"; "x" ] !seen)

let test_scheduler_no_switch_charge () =
  H.run ~cost:wallaby (fun env ->
      let k = env.H.kernel in
      let t =
        Kernel.spawn k ~name:"sched" ~cpu:0 (fun task ->
            let s = Scheduler.create ~charge_switch:false k task in
            Scheduler.add s (Context.make (fun () -> ()));
            let t0 = Kernel.now k in
            ignore (Scheduler.run_to_completion s);
            Alcotest.(check (float 0.0)) "free dispatch" 0.0 (Kernel.now k -. t0))
      in
      ignore (Kernel.waitpid k env.H.root t))

let test_scheduler_stuck_when_parked_elsewhere () =
  (* a context parked with external custody cannot complete the loop *)
  H.run ~cost:wallaby (fun env ->
      let k = env.H.kernel in
      let t =
        Kernel.spawn k ~name:"sched" ~cpu:0 (fun task ->
            let s = Scheduler.create k task in
            Scheduler.add s
              (Context.make (fun () ->
                   Context.park ~after_suspend:(fun () -> ())));
            Alcotest.(check bool) "reports incompletion" false
              (Scheduler.run_to_completion s))
      in
      ignore (Kernel.waitpid k env.H.root t))

(* ---------- prio_heap ---------- *)

module Ph = Ult.Prio_heap

let test_prio_heap_pops_highest_first () =
  let h = Ph.create () in
  List.iter (fun (p, v) -> Ph.push h ~prio:p v)
    [ (1, "low"); (9, "high"); (5, "mid"); (7, "upper") ];
  let drain h =
    let rec go acc = match Ph.pop h with
      | Some v -> go (v :: acc)
      | None -> List.rev acc
    in
    go []
  in
  Alcotest.(check (list string))
    "descending priority" [ "high"; "upper"; "mid"; "low" ] (drain h);
  Alcotest.(check bool) "empty after drain" true (Ph.is_empty h)

let test_prio_heap_fifo_among_equals () =
  let h = Ph.create () in
  (* same priority: insertion order must be preserved (no starvation
     reordering among equal-priority contexts) *)
  List.iteri (fun i v -> Ph.push h ~prio:(if i = 2 then 9 else 4) v)
    [ "a"; "b"; "urgent"; "c"; "d" ];
  let rec drain acc =
    match Ph.pop h with Some v -> drain (v :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list string))
    "fifo within a priority level"
    [ "urgent"; "a"; "b"; "c"; "d" ] (drain [])

let test_prio_heap_peek_and_clear () =
  let h = Ph.create () in
  Alcotest.(check (option int)) "peek empty" None (Ph.peek h);
  Ph.push h ~prio:3 30;
  Ph.push h ~prio:8 80;
  Alcotest.(check (option int)) "peek max" (Some 80) (Ph.peek h);
  Alcotest.(check int) "length" 2 (Ph.length h);
  Ph.clear h;
  Alcotest.(check int) "cleared" 0 (Ph.length h);
  Alcotest.(check (option int)) "pop empty" None (Ph.pop h)

let prop_prio_heap_matches_stable_sort =
  QCheck.Test.make ~name:"heap drain = stable sort by priority desc"
    ~count:200
    QCheck.(list (pair (int_bound 10) small_nat))
    (fun pairs ->
      let h = Ph.create () in
      List.iter (fun (p, v) -> Ph.push h ~prio:p v) pairs;
      let rec drain acc =
        match Ph.pop h with Some v -> drain (v :: acc) | None -> List.rev acc
      in
      let expected =
        List.stable_sort
          (fun (p1, _) (p2, _) -> compare p2 p1)
          pairs
        |> List.map snd
      in
      drain [] = expected)

(* The satellite fix itself: Priority policy pops strictly by priority,
   FIFO among equals, via the heap (was an O(n^2) list scan). *)
let test_scheduler_priority_order () =
  H.run ~cost:wallaby (fun env ->
      let k = env.H.kernel in
      let trace = ref [] in
      let t =
        Kernel.spawn k ~name:"sched" ~cpu:0 (fun task ->
            let s = Scheduler.create ~policy:Scheduler.Priority k task in
            let mk name = Context.make ~name (fun () -> trace := name :: !trace) in
            Scheduler.add s ~priority:1 (mk "low");
            Scheduler.add s ~priority:5 (mk "mid1");
            Scheduler.add s ~priority:10 (mk "hi");
            Scheduler.add s ~priority:5 (mk "mid2");
            Alcotest.(check bool) "completed" true
              (Scheduler.run_to_completion s))
      in
      ignore (Kernel.waitpid k env.H.root t);
      Alcotest.(check (list string))
        "priority order, fifo among equals"
        [ "hi"; "mid1"; "mid2"; "low" ]
        (List.rev !trace))

let test_scheduler_priority_many () =
  (* the heap keeps the policy correct at sizes where the old list scan
     was quadratic *)
  H.run ~cost:wallaby (fun env ->
      let k = env.H.kernel in
      let order = ref [] in
      let n = 500 in
      let t =
        Kernel.spawn k ~name:"sched" ~cpu:0 (fun task ->
            let s = Scheduler.create ~policy:Scheduler.Priority k task in
            for i = 1 to n do
              Scheduler.add s ~priority:(i mod 7)
                (Context.make (fun () -> order := (i mod 7) :: !order))
            done;
            ignore (Scheduler.run_to_completion s))
      in
      ignore (Kernel.waitpid k env.H.root t);
      let got = List.rev !order in
      Alcotest.(check int) "all ran" n (List.length got);
      Alcotest.(check (list int))
        "non-increasing priorities"
        (List.sort (fun a b -> compare b a) got)
        got)

(* ---------- properties ---------- *)

let prop_wsd_steal_pop_partition =
  QCheck.Test.make ~name:"steals + pops recover every push" ~count:100
    QCheck.(list small_nat)
    (fun xs ->
      let d = Wsd.create ~dummy:(-1) in
      List.iter (Wsd.push d) xs;
      let out = ref [] in
      let flip = ref true in
      let rec drain () =
        let next = if !flip then Wsd.steal d else Wsd.pop d in
        flip := not !flip;
        match next with
        | Some x ->
            out := x :: !out;
            drain ()
        | None -> if Wsd.length d > 0 then drain ()
      in
      drain ();
      List.sort compare !out = List.sort compare xs)

let prop_context_yield_count =
  QCheck.Test.make ~name:"a context yielding n times needs n+1 resumes"
    ~count:50
    QCheck.(int_bound 30)
    (fun n ->
      let uc =
        Context.make (fun () ->
            for _ = 1 to n do
              Context.yield ()
            done)
      in
      let rec go resumes =
        match Context.resume uc with
        | Context.Yielded -> go (resumes + 1)
        | Context.Finished -> resumes + 1
        | Context.Parked _ -> -1
      in
      go 0 = n + 1)

let () =
  Alcotest.run "ult"
    [
      ( "context",
        [
          Alcotest.test_case "runs to completion" `Quick
            test_context_runs_to_completion;
          Alcotest.test_case "yield roundtrip" `Quick
            test_context_yield_roundtrip;
          Alcotest.test_case "park callback order" `Quick
            test_context_park_callback_runs_after_suspend;
          Alcotest.test_case "double resume rejected" `Quick
            test_context_double_resume_rejected;
          Alcotest.test_case "self" `Quick test_context_self;
          Alcotest.test_case "migrates between KCs" `Quick
            test_context_migrates_between_resumers;
          Alcotest.test_case "unique ids" `Quick
            test_context_names_and_ids_unique;
        ] );
      ( "run_queue",
        [
          Alcotest.test_case "fifo" `Quick test_rq_fifo;
          Alcotest.test_case "empty" `Quick test_rq_empty;
          Alcotest.test_case "filter" `Quick test_rq_filter;
        ] );
      ( "ws_deque",
        [
          Alcotest.test_case "owner lifo" `Quick test_wsd_lifo_owner;
          Alcotest.test_case "thief fifo" `Quick test_wsd_fifo_thief;
          Alcotest.test_case "growth" `Quick test_wsd_growth;
          Alcotest.test_case "empty" `Quick test_wsd_empty;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "runs all" `Quick test_scheduler_runs_all;
          Alcotest.test_case "charges switch" `Quick
            test_scheduler_charges_switch;
          Alcotest.test_case "work stealing" `Quick
            test_scheduler_work_stealing;
          Alcotest.test_case "fifo never steals" `Quick
            test_scheduler_fifo_never_steals;
          Alcotest.test_case "on_switch hook" `Quick
            test_scheduler_on_switch_hook;
          Alcotest.test_case "charge_switch off" `Quick
            test_scheduler_no_switch_charge;
          Alcotest.test_case "parked elsewhere detected" `Quick
            test_scheduler_stuck_when_parked_elsewhere;
          Alcotest.test_case "priority order" `Quick
            test_scheduler_priority_order;
          Alcotest.test_case "priority at size" `Quick
            test_scheduler_priority_many;
        ] );
      ( "prio_heap",
        [
          Alcotest.test_case "highest first" `Quick
            test_prio_heap_pops_highest_first;
          Alcotest.test_case "fifo among equals" `Quick
            test_prio_heap_fifo_among_equals;
          Alcotest.test_case "peek and clear" `Quick
            test_prio_heap_peek_and_clear;
          QCheck_alcotest.to_alcotest prop_prio_heap_matches_stable_sort;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_wsd_steal_pop_partition;
          QCheck_alcotest.to_alcotest prop_context_yield_count;
        ] );
    ]
