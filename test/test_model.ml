(* Model-based property tests: the runtime's queues vs naive reference
   models.

   Each property generates a random operation sequence, applies it both
   to the real structure (sequentially -- the interleaving checker in
   test_check covers concurrency) and to a trivially-correct sequential
   model, and compares every observable result.  QCheck shrinks a
   failing sequence down to a minimal counterexample, and the generator
   is seeded from [Test_seed.seed] so any red run reproduces with
   TEST_SEED=<n>. *)

module Adq = Fiber_rt.Atomic_deque
module Mpsc = Fiber_rt.Mpsc_queue
module Compl = Fiber_rt.Completion
module Heap = Ult.Prio_heap
module Idle = Fiber_rt.Idle_waker
module Sync = Fiber_rt.Sync
module Scope = Fiber_rt.Scope
module Fiber = Fiber_rt.Fiber

(* ---------- Atomic_deque vs a list used as a stack/queue ---------- *)

type deque_op = Push of int | Pop | Steal | Steal_batch

let deque_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun v -> Push v) (int_bound 999));
        (2, return Pop);
        (2, return Steal);
        (2, return Steal_batch);
      ])

let show_deque_op = function
  | Push v -> Printf.sprintf "Push %d" v
  | Pop -> "Pop"
  | Steal -> "Steal"
  | Steal_batch -> "Steal_batch"

let deque_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_deque_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 60) deque_op_gen)

(* Reference: a list, newest at the head.  Pop takes the head (LIFO),
   steal takes the last element (FIFO from the other end). *)
let model_deque_apply model op =
  match op with
  | Push v -> (v :: model, None)
  | Pop -> ( match model with [] -> ([], None) | v :: tl -> (tl, Some v))
  | Steal -> (
      match List.rev model with
      | [] -> ([], None)
      | oldest :: rest -> (List.rev rest, Some oldest))
  | Steal_batch -> assert false (* handled in the prop: list result *)

let prop_deque_matches_model ops =
  let d = Adq.create ~dummy:(-1) in
  let model = ref [] in
  List.for_all
    (fun op ->
      match op with
      | Steal_batch ->
          (* ceil(n/2) oldest-first, capped at the default max_batch *)
          let oldest_first = List.rev !model in
          let k = min ((List.length oldest_first + 1) / 2) 16 in
          let taken = List.filteri (fun i _ -> i < k) oldest_first in
          model := List.rev (List.filteri (fun i _ -> i >= k) oldest_first);
          Adq.steal_batch d = taken && Adq.length d = List.length !model
      | _ ->
          let m', expected = model_deque_apply !model op in
          model := m';
          let got =
            match op with
            | Push v ->
                Adq.push d v;
                None
            | Pop -> Adq.pop d
            | Steal -> Adq.steal d
            | Steal_batch -> assert false
          in
          got = expected && Adq.length d = List.length !model)
    ops

(* ---------- Mpsc_queue vs a FIFO list ---------- *)

type mpsc_op = Enq of int | Drain

let mpsc_op_gen =
  QCheck.Gen.(
    frequency [ (4, map (fun v -> Enq v) (int_bound 999)); (1, return Drain) ])

let show_mpsc_op = function
  | Enq v -> Printf.sprintf "Enq %d" v
  | Drain -> "Drain"

let mpsc_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_mpsc_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 60) mpsc_op_gen)

let prop_mpsc_matches_model ops =
  let q = Mpsc.create () in
  let model = ref [] (* oldest first *) in
  List.for_all
    (fun op ->
      match op with
      | Enq v ->
          Mpsc.push q v;
          model := !model @ [ v ];
          Mpsc.length q = List.length !model
      | Drain ->
          let got = Mpsc.pop_all q in
          let expected = !model in
          model := [];
          got = expected && Mpsc.is_empty q)
    ops

(* ---------- Completion vs the Joiners state machine ---------- *)

type compl_op = Add_joiner | Finish | Query_done

let compl_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, return Add_joiner); (1, return Finish); (2, return Query_done) ])

let show_compl_op = function
  | Add_joiner -> "Add_joiner"
  | Finish -> "Finish"
  | Query_done -> "Query_done"

let compl_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_compl_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 40) compl_op_gen)

(* Reference semantics of the Running -> Joiners -> Done machine, applied
   sequentially: a joiner added before [finish] fires exactly when
   [finish] runs; a joiner added after fires immediately; [is_done]
   tracks whether [finish] happened; a redundant [finish] is a no-op
   (wakes nobody twice).  Every joiner must end the run woken exactly
   once. *)
let prop_completion_matches_model ops =
  let c = Compl.create () in
  let wakes = ref [] (* one counter per added joiner *) in
  let finished = ref false in
  let all_once () = List.for_all (fun n -> !n = 1) !wakes in
  let step_ok op =
    match op with
    | Add_joiner ->
        let n = ref 0 in
        wakes := n :: !wakes;
        Compl.add_joiner c (fun () -> incr n);
        !n = if !finished then 1 else 0
    | Finish ->
        Compl.finish c;
        finished := true;
        all_once ()
    | Query_done -> Compl.is_done c = !finished
  in
  let steps = List.for_all step_ok ops in
  Compl.finish c;
  steps && all_once () && Compl.is_done c

(* ---------- Ult.Prio_heap vs a sorted association list ---------- *)

type heap_op = Hpush of int * int (* prio, value *) | Hpop | Hpeek

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun p v -> Hpush (p, v)) (int_bound 9) (int_bound 999));
        (2, return Hpop);
        (1, return Hpeek);
      ])

let show_heap_op = function
  | Hpush (p, v) -> Printf.sprintf "Push(prio=%d, %d)" p v
  | Hpop -> "Pop"
  | Hpeek -> "Peek"

let heap_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_heap_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 60) heap_op_gen)

(* Reference: a list of (prio, insertion-seq, value); pop takes the
   max prio, FIFO (lowest seq) among equals.  Quadratic and obviously
   right. *)
let model_heap_best model =
  List.fold_left
    (fun best ((p, s, _) as cand) ->
      match best with
      | None -> Some cand
      | Some (bp, bs, _) ->
          if p > bp || (p = bp && s < bs) then Some cand else best)
    None model

let prop_heap_matches_model ops =
  let h = Heap.create () in
  let model = ref [] and next_seq = ref 0 in
  List.for_all
    (fun op ->
      match op with
      | Hpush (p, v) ->
          Heap.push h ~prio:p v;
          model := (p, !next_seq, v) :: !model;
          incr next_seq;
          Heap.length h = List.length !model
      | Hpeek ->
          let expected =
            Option.map (fun (_, _, v) -> v) (model_heap_best !model)
          in
          Heap.peek h = expected
      | Hpop -> (
          let got = Heap.pop h in
          match model_heap_best !model with
          | None -> got = None
          | Some ((_, _, v) as best) ->
              model := List.filter (fun e -> e != best) !model;
              got = Some v && Heap.length h = List.length !model))
    ops

(* ---------- Idle_waker vs a plain list stack ---------- *)

(* Worker ids are drawn from a tiny range so Take/Pop hit both present
   and absent ids; duplicates are possible, and [take]'s filter-all
   semantics must match the model's. *)
type idle_op = Ipush of int | Itake of int | Ipop | Idrain | Isnap

let idle_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun w -> Ipush w) (int_bound 3));
        (3, map (fun w -> Itake w) (int_bound 3));
        (2, return Ipop);
        (1, return Idrain);
        (2, return Isnap);
      ])

let show_idle_op = function
  | Ipush w -> Printf.sprintf "Push %d" w
  | Itake w -> Printf.sprintf "Take %d" w
  | Ipop -> "Pop"
  | Idrain -> "Drain"
  | Isnap -> "Snapshot"

let idle_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_idle_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 60) idle_op_gen)

let prop_idle_matches_model ops =
  let t = Idle.create () in
  let model = ref [] (* newest first, like the Treiber stack *) in
  List.for_all
    (fun op ->
      match op with
      | Ipush w ->
          Idle.push t w;
          model := w :: !model;
          true
      | Itake w ->
          let expected = List.mem w !model in
          model := List.filter (fun x -> x <> w) !model;
          Idle.take t w = expected
      | Ipop ->
          let expected =
            match !model with
            | [] -> None
            | newest :: rest ->
                model := rest;
                Some newest
          in
          Idle.pop t = expected
      | Idrain ->
          let expected = !model in
          model := [];
          Idle.drain t = expected
      | Isnap -> Idle.snapshot t = !model)
    ops

(* ---------- Idle_waker under the pool's park-once protocol ---------- *)

(* The fiber engine's one idle structure as the engine drives it:
   worker ids 0..3, and a worker parks itself at most once (a park of
   an id already on the stack is skipped -- a real worker is asleep
   there and cannot park again).  Every removal -- [pop] for wake_one,
   [take] for a targeted wake or a parker's own cancel, [drain] on
   stop -- must hand each parked id out exactly once: after every op
   the return value, the full stack and the token count (parks =
   removals + still parked) are checked against a list, and no id is
   ever listed twice. *)
type pool_op = Ppark of int | Ptake of int | Ppop | Pdrain

let pool_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun w -> Ppark w) (int_bound 3));
        (3, map (fun w -> Ptake w) (int_bound 3));
        (3, return Ppop);
        (1, return Pdrain);
      ])

let show_pool_op = function
  | Ppark w -> Printf.sprintf "Park %d" w
  | Ptake w -> Printf.sprintf "Take %d" w
  | Ppop -> "Pop"
  | Pdrain -> "Drain"

let pool_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_pool_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 80) pool_op_gen)

let prop_idle_pool_matches_model ops =
  let t = Idle.create () in
  let model = ref [] (* newest first *) in
  let parks = ref 0 and removed = ref 0 in
  let remove n = removed := !removed + n in
  List.for_all
    (fun op ->
      let ret_ok =
        match op with
        | Ppark w ->
            if not (List.mem w !model) then begin
              Idle.push t w;
              model := w :: !model;
              incr parks
            end;
            true
        | Ptake w ->
            let expected = List.mem w !model in
            model := List.filter (fun x -> x <> w) !model;
            if expected then remove 1;
            Idle.take t w = expected
        | Ppop ->
            let expected =
              match !model with
              | [] -> None
              | newest :: rest ->
                  model := rest;
                  remove 1;
                  Some newest
            in
            Idle.pop t = expected
        | Pdrain ->
            let expected = !model in
            model := [];
            remove (List.length expected);
            Idle.drain t = expected
      in
      let snap = Idle.snapshot t in
      ret_ok && snap = !model
      && List.length (List.sort_uniq compare snap) = List.length snap
      && !parks = !removed + List.length snap)
    ops

(* ---------- Sync.Mutex vs a held/free bit ---------- *)

(* Sequential interpretation: [lock] on a free mutex must take the fast
   path (no fiber engine here, so an attempt to park would be an
   unhandled effect — itself a failure), [try_lock] mirrors the bit,
   and an unlock of a free mutex raises. *)
type mutex_op = Mlock | Mtry | Munlock

let mutex_op_gen =
  QCheck.Gen.(
    frequency [ (2, return Mlock); (3, return Mtry); (4, return Munlock) ])

let show_mutex_op = function
  | Mlock -> "Lock"
  | Mtry -> "Try_lock"
  | Munlock -> "Unlock"

let mutex_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_mutex_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 60) mutex_op_gen)

let prop_mutex_matches_model ops =
  let m = Sync.Mutex.create () in
  let held = ref false in
  List.for_all
    (fun op ->
      match op with
      | Mlock ->
          (* Locking a held mutex would park forever: skip, the model
             has no second thread to unlock it. *)
          if !held then true
          else begin
            Sync.Mutex.lock m;
            held := true;
            true
          end
      | Mtry ->
          let got = Sync.Mutex.try_lock m in
          let expected = not !held in
          if got then held := true;
          got = expected
      | Munlock ->
          if !held then begin
            Sync.Mutex.unlock m;
            held := false;
            true
          end
          else
            (* a free mutex rejects the unlock *)
            match Sync.Mutex.unlock m with
            | () -> false
            | exception Invalid_argument _ -> true)
    ops

(* ---------- Sync.Condition: FIFO wake order under Fiber.run -------- *)

(* The reference model is the waiter queue itself: [signal] wakes the
   oldest parked fiber, [broadcast] wakes everyone oldest-first.  Under
   [Fiber.run] the lone worker runs local spawns and wakes in FIFO
   order, so a spawned waiter runs to its park on the next yield,
   registration order is the spawn order and the recorded wake order
   must equal the model's pops.
   (Relies on the no-spurious-wakeup guarantee: each waiter waits
   once.) *)
type cond_op = Cwait | Csignal | Cbroadcast

let cond_op_gen =
  QCheck.Gen.(
    frequency [ (4, return Cwait); (3, return Csignal); (1, return Cbroadcast) ])

let show_cond_op = function
  | Cwait -> "Wait"
  | Csignal -> "Signal"
  | Cbroadcast -> "Broadcast"

let cond_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_cond_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 30) cond_op_gen)

let prop_condition_fifo ops =
  let woken = ref [] (* wake order, oldest first, as recorded *) in
  let expected = ref [] (* model's predicted wake order *) in
  let parked = ref [] (* model: waiter ids, oldest first *) in
  let ok = ref true in
  Fiber.run (fun () ->
      let m = Sync.Mutex.create () in
      let c = Sync.Condition.create () in
      let next_id = ref 0 in
      List.iter
        (fun op ->
          match op with
          | Cwait ->
              let id = !next_id in
              incr next_id;
              ignore
                (Fiber.spawn (fun () ->
                     Sync.Mutex.lock m;
                     Sync.Condition.wait c m;
                     woken := !woken @ [ id ];
                     Sync.Mutex.unlock m));
              (* run the waiter to its park *)
              Fiber.yield ();
              parked := !parked @ [ id ]
          | Csignal ->
              Sync.Condition.signal c;
              (match !parked with
              | [] -> ()
              | oldest :: rest ->
                  parked := rest;
                  expected := !expected @ [ oldest ]);
              (* let the woken waiter record itself *)
              Fiber.yield ();
              Fiber.yield ()
          | Cbroadcast ->
              Sync.Condition.broadcast c;
              expected := !expected @ !parked;
              parked := [];
              Fiber.yield ();
              Fiber.yield ())
        ops;
      (* flush everyone still parked *)
      Sync.Condition.broadcast c;
      expected := !expected @ !parked;
      parked := [];
      ok := true);
  !woken = !expected && !ok

(* ---------- Scope vs first-failure-wins ---------- *)

(* A random brood of children, each succeeding, failing with a tagged
   exception, or cancelling the scope.  Under the deterministic engine
   children run in spawn order, so the reference is simply: every
   child runs, and [run]'s outcome is the FIRST failing child's
   exception (cancellation alone stays quiet). *)
type child_spec = Ok_child | Fail_child of int | Cancel_child

let child_gen =
  QCheck.Gen.(
    frequency
      [
        (5, return Ok_child);
        (2, map (fun i -> Fail_child i) (int_bound 99));
        (1, return Cancel_child);
      ])

let show_child = function
  | Ok_child -> "Ok"
  | Fail_child i -> Printf.sprintf "Fail %d" i
  | Cancel_child -> "Cancel"

let children_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_child)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 20) child_gen)

exception Tagged of int

let prop_scope_first_failure children =
  let ran = ref 0 in
  let outcome = ref None in
  Fiber.run (fun () ->
      match
        Scope.run (fun sc ->
            List.iter
              (fun spec ->
                Scope.spawn sc (fun () ->
                    incr ran;
                    match spec with
                    | Ok_child -> ()
                    | Fail_child i -> raise (Tagged i)
                    | Cancel_child -> Scope.cancel sc))
              children;
            "body-done")
      with
      | v -> outcome := Some (Ok v)
      | exception e -> outcome := Some (Error e));
  let expected =
    match
      List.find_opt (function Fail_child _ -> true | _ -> false) children
    with
    | Some (Fail_child i) -> Error (Tagged i)
    | _ -> Ok "body-done"
  in
  !ran = List.length children && !outcome = Some expected

(* ---------- Proc.Fd_core vs a slot-array reference ---------- *)

module Fd = Proc.Fd_core

type fd_op = FAlloc | FClose of int | FDup of int | FDup2 of int * int | FCloseAll

let fd_cap = 6

let fd_op_gen =
  QCheck.Gen.(
    let slot = int_bound (fd_cap - 1) in
    frequency
      [
        (4, return FAlloc);
        (3, map (fun i -> FClose i) slot);
        (2, map (fun i -> FDup i) slot);
        (2, map2 (fun s d -> FDup2 (s, d)) slot slot);
        (1, return FCloseAll);
      ])

let show_fd_op = function
  | FAlloc -> "Alloc"
  | FClose i -> Printf.sprintf "Close %d" i
  | FDup i -> Printf.sprintf "Dup %d" i
  | FDup2 (s, d) -> Printf.sprintf "Dup2 (%d,%d)" s d
  | FCloseAll -> "CloseAll"

let fd_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_fd_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 60) fd_op_gen)

(* The reference: a plain slot array of resource ids plus a per-id
   refcount table and a destroy log, updated by the POSIX rules spelled
   out in fd_core.ml.  Every observable -- returned slots, error cases,
   destroy order, surviving refcounts -- must coincide. *)
let prop_fd_matches_model ops =
  let t = Fd.create ~capacity:fd_cap in
  let resources = Hashtbl.create 16 in
  let real_destroyed = ref [] in
  let mk id =
    let r = Fd.resource ~destroy:(fun i -> real_destroyed := i :: !real_destroyed) id in
    Hashtbl.replace resources id r;
    r
  in
  let slots = Array.make fd_cap None in
  let refs = Hashtbl.create 16 in
  let ref_destroyed = ref [] in
  let ref_decr id =
    let n = Hashtbl.find refs id in
    if n = 1 then begin
      Hashtbl.remove refs id;
      ref_destroyed := id :: !ref_destroyed
    end
    else Hashtbl.replace refs id (n - 1)
  in
  let ref_lowest_free () =
    let rec go i =
      if i >= fd_cap then None else if slots.(i) = None then Some i else go (i + 1)
    in
    go 0
  in
  let next_id = ref 0 in
  let ok = ref true in
  let expect op real model =
    if real <> model then begin
      Printf.printf "fd model diverged on %s: real %s, model %s\n%!"
        (show_fd_op op) real model;
      ok := false
    end
  in
  List.iter
    (fun op ->
      match op with
      | FAlloc ->
          let id = !next_id in
          incr next_id;
          let real =
            match Fd.alloc t (mk id) with
            | Some i -> string_of_int i
            | None ->
                (* caller still owns the handle: drop it, as adopt does *)
                Fd.release (Hashtbl.find resources id);
                "full"
          in
          let model =
            match ref_lowest_free () with
            | Some i ->
                slots.(i) <- Some id;
                Hashtbl.replace refs id 1;
                string_of_int i
            | None ->
                ref_destroyed := id :: !ref_destroyed;
                "full"
          in
          expect op real model
      | FClose i ->
          let real = string_of_bool (Fd.close t i) in
          let model =
            match slots.(i) with
            | None -> "false"
            | Some id ->
                slots.(i) <- None;
                ref_decr id;
                "true"
          in
          expect op real model
      | FDup i ->
          let real =
            match Fd.dup t i with
            | Ok j -> string_of_int j
            | Error `Badf -> "badf"
            | Error `Mfile -> "mfile"
          in
          let model =
            match slots.(i) with
            | None -> "badf"
            | Some id -> (
                match ref_lowest_free () with
                | Some j ->
                    slots.(j) <- Some id;
                    Hashtbl.replace refs id (Hashtbl.find refs id + 1);
                    string_of_int j
                | None -> "mfile")
          in
          expect op real model
      | FDup2 (src, dst) ->
          let real =
            match Fd.dup2 t ~src ~dst with
            | Ok () -> "ok"
            | Error `Badf -> "badf"
          in
          let model =
            match slots.(src) with
            | None -> "badf"
            | Some id ->
                if src <> dst then begin
                  Hashtbl.replace refs id (Hashtbl.find refs id + 1);
                  (match slots.(dst) with
                  | None -> ()
                  | Some old -> ref_decr old);
                  slots.(dst) <- Some id
                end;
                "ok"
          in
          expect op real model
      | FCloseAll ->
          let real = string_of_int (Fd.close_all t) in
          let n = ref 0 in
          for i = 0 to fd_cap - 1 do
            match slots.(i) with
            | None -> ()
            | Some id ->
                incr n;
                slots.(i) <- None;
                ref_decr id
          done;
          expect op real (string_of_int !n))
    ops;
  (* final state: occupancy, destroy log (order included), live refs *)
  !ok
  && Fd.count t
     = Array.fold_left (fun a s -> if s = None then a else a + 1) 0 slots
  && !real_destroyed = !ref_destroyed
  && Hashtbl.fold
       (fun id n acc -> acc && Fd.refs (Hashtbl.find resources id) = n)
       refs true

(* ---------- Proc.Table vs a Hashtbl (unique vpids) ---------- *)

module Ptab = Proc.Table

type pt_op = PAdd of int | PRemove of int | PFind of int

let pt_op_gen =
  QCheck.Gen.(
    let key = int_bound 7 in
    frequency
      [
        (3, map (fun k -> PAdd k) key);
        (2, map (fun k -> PRemove k) key);
        (3, map (fun k -> PFind k) key);
      ])

let show_pt_op = function
  | PAdd k -> Printf.sprintf "Add %d" k
  | PRemove k -> Printf.sprintf "Remove %d" k
  | PFind k -> Printf.sprintf "Find %d" k

let pt_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_pt_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 60) pt_op_gen)

(* Keys 0..7 over 2 buckets force long shared chains.  vpids are unique
   by construction in the process layer (one fetch-and-add counter), so
   an Add of a live key is skipped on both sides. *)
let prop_ptab_matches_model ops =
  let t = Ptab.create ~buckets:2 () in
  let h = Hashtbl.create 16 in
  let tick = ref 0 in
  List.for_all
    (fun op ->
      incr tick;
      match op with
      | PAdd k ->
          if not (Ptab.mem t k) then begin
            Ptab.add t k !tick;
            Hashtbl.replace h k !tick
          end;
          Ptab.length t = Hashtbl.length h
      | PRemove k ->
          let real = Ptab.remove t k in
          let model = Hashtbl.mem h k in
          Hashtbl.remove h k;
          real = model && Ptab.length t = Hashtbl.length h
      | PFind k -> Ptab.find t k = Hashtbl.find_opt h k)
    ops
  && Ptab.fold t ~init:true ~f:(fun acc k v -> acc && Hashtbl.find_opt h k = Some v)

(* ---------- runner ---------- *)

let () =
  Test_seed.announce "test_model";
  let rand = Test_seed.rand_state () in
  let count = 300 in
  let t name arb prop =
    QCheck_alcotest.to_alcotest ~rand
      (QCheck.Test.make ~count
         ~name:(Printf.sprintf "%s (TEST_SEED=%d)" name Test_seed.seed)
         arb prop)
  in
  Alcotest.run "model"
    [
      ( "vs-reference-model",
        [
          t "Atomic_deque = stack+queue list model" deque_ops_arb
            prop_deque_matches_model;
          t "Mpsc_queue = FIFO list model" mpsc_ops_arb prop_mpsc_matches_model;
          t "Completion = Joiners state machine" compl_ops_arb
            prop_completion_matches_model;
          t "Ult.Prio_heap = sorted assoc model" heap_ops_arb
            prop_heap_matches_model;
          t "Idle_waker = list stack model" idle_ops_arb
            prop_idle_matches_model;
          t "Idle_waker = list-stack model" pool_ops_arb
            prop_idle_pool_matches_model;
          t "Sync.Mutex (park) = held/free bit" mutex_ops_arb
            prop_mutex_matches_model;
          t "Sync.Condition wakes FIFO" cond_ops_arb prop_condition_fifo;
          t "Scope = first-failure-wins" children_arb prop_scope_first_failure;
          t "Proc.Fd_core = slot-array + refcount model" fd_ops_arb
            prop_fd_matches_model;
          t "Proc.Table = Hashtbl model" pt_ops_arb prop_ptab_matches_model;
        ] );
    ]
