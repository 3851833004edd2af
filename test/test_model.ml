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
module Timers = Net.Timers
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

type compl_op = Add_joiner | Finish of int | Query_done | Query_status

let compl_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, return Add_joiner);
        (1, map (fun v -> Finish v) (int_bound 99));
        (2, return Query_done);
        (2, return Query_status);
      ])

let show_compl_op = function
  | Add_joiner -> "Add_joiner"
  | Finish v -> Printf.sprintf "Finish %d" v
  | Query_done -> "Query_done"
  | Query_status -> "Query_status"

let compl_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_compl_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 40) compl_op_gen)

(* Reference semantics of the Running -> Joiners -> Done v machine,
   applied sequentially: [status] is [None] until [finish v], then
   [Some v], and [is_done] agrees with it; a joiner added before
   [finish] fires exactly when [finish] runs, one added after fires
   immediately; a woken joiner already sees [Some v] (waitpid reads the
   status right after its wake).  A cell is finished once, so only the
   first [Finish] reaches it.  Every joiner must end the run woken
   exactly once. *)
let prop_completion_matches_model ops =
  let c = Compl.create () in
  let wakes = ref [] (* one (count, status seen at wake) per joiner *) in
  let finished = ref None in
  let all_once () =
    List.for_all
      (fun (n, seen) -> !n = 1 && !seen = !finished)
      !wakes
  in
  let finish v =
    Compl.finish c v;
    finished := Some v
  in
  let step_ok op =
    match op with
    | Add_joiner ->
        let n = ref 0 and seen = ref None in
        wakes := (n, seen) :: !wakes;
        Compl.add_joiner c (fun () ->
            incr n;
            seen := Compl.status c);
        !n = if !finished = None then 0 else 1
    | Finish v ->
        if !finished = None then finish v;
        all_once ()
    | Query_done -> Compl.is_done c = (!finished <> None)
    | Query_status -> Compl.status c = !finished
  in
  let steps = List.for_all step_ok ops in
  if !finished = None then finish 0;
  steps && all_once () && Compl.status c = !finished

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

(* ---------- Net.Timers vs a sorted list ---------- *)

(* Deadlines come from a tiny range so ties are common; [Tcancel k]
   names the k-th timer added so far (mod the count), so it hits
   pending, fired and already-cancelled timers alike. *)
type timers_op = Tadd of int | Tcancel of int | Tadvance of int | Tnext

let timers_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun at -> Tadd at) (int_range (-2) 9));
        (2, map (fun k -> Tcancel k) (int_bound 20));
        (2, map (fun now -> Tadvance now) (int_range (-2) 10));
        (1, return Tnext);
      ])

let show_timers_op = function
  | Tadd at -> Printf.sprintf "Add(at=%d)" at
  | Tcancel k -> Printf.sprintf "Cancel(%d)" k
  | Tadvance now -> Printf.sprintf "Advance(now=%d)" now
  | Tnext -> "Next_due"

let timers_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_timers_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 60) timers_op_gen)

(* Reference: the pending timers as a list of (at, id), ids in
   insertion order; advance fires the due ones sorted by (at, id). *)
let prop_timers_match_model ops =
  let t = Timers.create () in
  let timers = ref [||] and fired = ref [] in
  let model = ref [] in
  List.for_all
    (fun op ->
      match op with
      | Tadd at ->
          let id = Array.length !timers in
          let tm = Timers.make ~at:(float_of_int at) (fun () -> fired := id :: !fired) in
          Timers.add t tm;
          timers := Array.append !timers [| tm |];
          model := !model @ [ (at, id) ];
          true
      | Tcancel k ->
          let n = Array.length !timers in
          n = 0
          ||
          let id = k mod n in
          let pending = List.exists (fun (_, i) -> i = id) !model in
          model := List.filter (fun (_, i) -> i <> id) !model;
          Timers.cancel !timers.(id) = pending
      | Tadvance now ->
          let due, rest = List.partition (fun (at, _) -> at <= now) !model in
          model := rest;
          fired := [];
          let n = Timers.advance t ~now:(float_of_int now) in
          n = List.length due && List.rev !fired = List.map snd (List.sort compare due)
      | Tnext ->
          let expected =
            List.fold_left
              (fun acc (at, _) ->
                match acc with Some b when b <= at -> acc | _ -> Some at)
              None !model
          in
          Timers.next_due t = Option.map float_of_int expected)
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

(* Above the table's 8 initial slots, so op streams cross two growths
   (8 -> 16 -> 20); slots are drawn up to [fd_cap + 1] so every
   operation also meets out-of-range descriptors. *)
let fd_cap = 20

let fd_op_gen =
  QCheck.Gen.(
    let slot = int_bound (fd_cap + 1) in
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
    QCheck.Gen.(list_size (int_bound 80) fd_op_gen)

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
  let slot i = if i < fd_cap then slots.(i) else None in
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
            match slot i with
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
            match slot i with
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
            match slot src with
            | _ when dst >= fd_cap -> "badf"
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
  && Fd.capacity t = fd_cap
  && Fd.count t
     = Array.fold_left (fun a s -> if s = None then a else a + 1) 0 slots
  && !real_destroyed = !ref_destroyed
  && Hashtbl.fold
       (fun id n acc -> acc && Fd.refs (Hashtbl.find resources id) = n)
       refs true

(* ---------- Fd_core growth edges, deterministic ---------- *)

let mk_res () = Fd.resource ~destroy:(fun _ -> ()) 0

(* dup2 onto a slot the table has not grown to yet: it grows far enough
   to cover the slot, and only a slot at or past the capacity is EBADF. *)
let test_fd_dup2_ungrown () =
  let t = Fd.create ~capacity:fd_cap in
  let r = mk_res () in
  Alcotest.(check (option int)) "first alloc" (Some 0) (Fd.alloc t r);
  Alcotest.(check bool) "ungrown slot reads free" true (Fd.get t 13 = None);
  Alcotest.(check bool) "ungrown slot closes as EBADF" false (Fd.close t 13);
  Alcotest.(check bool) "dup2 onto ungrown slot" true
    (Fd.dup2 t ~src:0 ~dst:13 = Ok ());
  Alcotest.(check bool) "slot 13 names the source" true
    (match Fd.get t 13 with Some r' -> r' == r | None -> false);
  Alcotest.(check int) "two references" 2 (Fd.refs r);
  Alcotest.(check (option int)) "lowest free below the dup2" (Some 1)
    (Fd.alloc t (mk_res ()));
  Alcotest.(check bool) "dst = capacity is EBADF" true
    (Fd.dup2 t ~src:0 ~dst:fd_cap = Error `Badf);
  Alcotest.(check bool) "last slot is in range" true
    (Fd.dup2 t ~src:0 ~dst:(fd_cap - 1) = Ok ());
  Alcotest.(check int) "count" 4 (Fd.count t);
  Alcotest.(check int) "close_all sees the grown slots" 4 (Fd.close_all t);
  Alcotest.(check int) "source destroyed" 0 (Fd.refs r)

(* POSIX lowest-free order holds across each growth, and EMFILE comes
   exactly at the capacity. *)
let test_fd_lowest_free_across_growth () =
  let t = Fd.create ~capacity:fd_cap in
  for i = 0 to 9 do
    Alcotest.(check (option int)) "sequential" (Some i) (Fd.alloc t (mk_res ()))
  done;
  ignore (Fd.close t 3);
  ignore (Fd.close t 8);
  Alcotest.(check (option int)) "hole below the growth" (Some 3)
    (Fd.alloc t (mk_res ()));
  Alcotest.(check (option int)) "hole in the grown part" (Some 8)
    (Fd.alloc t (mk_res ()));
  for i = 10 to fd_cap - 1 do
    Alcotest.(check (option int)) "past the second growth" (Some i)
      (Fd.alloc t (mk_res ()))
  done;
  Alcotest.(check (option int)) "EMFILE at capacity" None
    (Fd.alloc t (mk_res ()));
  Alcotest.(check bool) "dup is EMFILE too" true (Fd.dup t 0 = Error `Mfile);
  Alcotest.(check int) "full" fd_cap (Fd.count t)

(* [capacity] is the bound the table was created with, before and after
   growth, and also when it is below the initial slot count. *)
let test_fd_capacity_unchanged () =
  let t = Fd.create ~capacity:fd_cap in
  Alcotest.(check int) "fresh" fd_cap (Fd.capacity t);
  for _ = 1 to 12 do
    ignore (Fd.alloc t (mk_res ()))
  done;
  Alcotest.(check int) "grown" fd_cap (Fd.capacity t);
  let small = Fd.create ~capacity:3 in
  Alcotest.(check int) "small" 3 (Fd.capacity small);
  for i = 0 to 2 do
    Alcotest.(check (option int)) "small alloc" (Some i)
      (Fd.alloc small (mk_res ()))
  done;
  Alcotest.(check (option int)) "small EMFILE" None
    (Fd.alloc small (mk_res ()));
  Alcotest.(check bool) "small dup2 past capacity" true
    (Fd.dup2 small ~src:0 ~dst:3 = Error `Badf);
  Alcotest.(check int) "still small" 3 (Fd.capacity small)

(* ---------- Proc process tree vs a POSIX tree model ---------- *)

(* Each ULP idles in a yield loop, calling [Proc.check], until the
   test fiber tells it to exit, so every spawn, exit and kill happens
   at an op boundary.  [Fiber.run] has one worker: a ULP's exit runs to
   the end (re-parenting, status, self-reap) before the test fiber
   resumes. *)

type tree_op =
  | TSpawn of int (* spawner: root or a running ULP *)
  | TExit of int * int (* a running ULP, its exit code *)
  | TWait of int * int (* waiter, target vpid *)
  | TTry_wait of int * int
  | TKill of int * int (* target vpid, signal *)
  | TLook of int (* getppid and children of any ULP *)

let tree_op_gen =
  QCheck.Gen.(
    let i = int_bound 7 in
    frequency
      [
        (4, map (fun a -> TSpawn a) i);
        (2, map2 (fun a b -> TExit (a, b)) i (int_bound 3));
        (2, map2 (fun a b -> TWait (a, b)) i i);
        (2, map2 (fun a b -> TTry_wait (a, b)) i i);
        (1, map2 (fun a b -> TKill (a, b)) i (int_bound 2));
        (3, map (fun a -> TLook a) i);
      ])

let show_tree_op = function
  | TSpawn a -> Printf.sprintf "Spawn %d" a
  | TExit (a, b) -> Printf.sprintf "Exit (%d, %d)" a b
  | TWait (a, b) -> Printf.sprintf "Wait (%d, %d)" a b
  | TTry_wait (a, b) -> Printf.sprintf "Try_wait (%d, %d)" a b
  | TKill (a, b) -> Printf.sprintf "Kill (%d, %d)" a b
  | TLook a -> Printf.sprintf "Look %d" a

let tree_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list show_tree_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 40) tree_op_gen)

(* The model: every vpid ever spawned, never removed.  Init (vpid 1)
   adopts the children of an exiting process and reaps adopted
   zombies itself (unless a waiter is parked on one), so only a process's own children are waitable and a
   grandchild is ECHILD until its parent exits. *)
type mstate = Running | Zombie of Proc.status | Reaped

type mproc = {
  mutable mparent : int;
  mutable mstate : mstate;
  mutable madopted : bool;
}

let m_exit m vpid st =
  Hashtbl.iter
    (fun _ c ->
      if c.mparent = vpid && c.mstate <> Reaped then begin
        c.mparent <- 1;
        c.madopted <- true;
        match c.mstate with Zombie _ -> c.mstate <- Reaped | _ -> ()
      end)
    m;
  let u = Hashtbl.find m vpid in
  u.mstate <- (if u.madopted then Reaped else Zombie st)

let tree_signals = [| Proc.sigterm; Proc.sigkill; Proc.sigusr1 |]

let prop_tree_matches_model ops =
  let ok = ref true in
  Fiber.run (fun () ->
      let expect b = if not b then ok := false in
      let w = Proc.boot () in
      let m = Hashtbl.create 16 and real = Hashtbl.create 16 in
      Hashtbl.replace m 1 { mparent = 0; mstate = Running; madopted = false };
      Hashtbl.replace real 1 (Proc.root w, ref None);
      let vpids () = List.sort compare (Hashtbl.fold (fun v _ a -> v :: a) m []) in
      let running () =
        List.filter (fun v -> (Hashtbl.find m v).mstate = Running) (vpids ())
      in
      let nth l i = List.nth l (i mod List.length l) in
      let handle v = fst (Hashtbl.find real v) in
      let settle cond =
        let n = ref 0 in
        while (not (cond ())) && !n < 10_000 do
          Fiber.yield ();
          incr n
        done;
        expect (cond ())
      in
      (* tell a running ULP to exit with [code] and let it *)
      let finish v code =
        snd (Hashtbl.find real v) := Some code;
        settle (fun () -> Proc.status_of (handle v) = Some (Proc.Exited code));
        m_exit m v (Proc.Exited code)
      in
      let waitable p v =
        match Hashtbl.find_opt m v with
        | Some c when c.mparent = p && c.mstate <> Reaped -> Some c
        | _ -> None
      in
      let body stop u =
        let rec loop () =
          match !stop with
          | Some code -> Proc.exit u code
          | None ->
              Proc.check u;
              Fiber.yield ();
              loop ()
        in
        loop ()
      in
      let step = function
        | TSpawn i ->
            let p = nth (running ()) i in
            let stop = ref None in
            let u = Proc.spawn ~parent:(handle p) (body stop) in
            let v = Hashtbl.length m + 1 in
            expect (Proc.getpid u = v);
            Hashtbl.replace m v { mparent = p; mstate = Running; madopted = false };
            Hashtbl.replace real v (u, stop)
        | TExit (i, code) -> (
            match List.filter (( <> ) 1) (running ()) with
            | [] -> ()
            | l -> finish (nth l i) code)
        | TTry_wait (i, j) ->
            let p = nth (running ()) i and v = nth (vpids () @ [ 999 ]) j in
            let got = Proc.try_waitpid ~parent:(handle p) ~vpid:v in
            let model =
              match waitable p v with
              | None -> Error `Echild
              | Some ({ mstate = Zombie st; _ } as c) ->
                  c.mstate <- Reaped;
                  Ok (Some st)
              | Some _ -> Ok None
            in
            expect (got = model)
        | TWait (i, j) ->
            (* not on the root, which never exits; and in a fiber of its
               own, so a wrongly parked waiter fails the check below and
               the final exits wake it instead of hanging the run *)
            let p = nth (running ()) i
            and v = nth (List.tl (vpids ()) @ [ 999 ]) j in
            let got = ref None in
            ignore
              (Fiber.spawn (fun () ->
                   got := Some (Proc.waitpid ~parent:(handle p) ~vpid:v)));
            for _ = 1 to 3 do
              Fiber.yield ()
            done;
            (match waitable p v with
            | Some ({ mstate = Running; _ } as c) ->
                (* parked until the child exits *)
                expect (!got = None);
                let code = (i + j) mod 4 in
                finish v code;
                settle (fun () -> !got <> None);
                (* a parked waiter gets the status, adopted child or not *)
                expect (!got = Some (Ok (Proc.Exited code)));
                c.mstate <- Reaped
            | Some ({ mstate = Zombie st; _ } as c) ->
                expect (!got = Some (Ok st));
                c.mstate <- Reaped
            | Some { mstate = Reaped; _ } | None ->
                expect (!got = Some (Error `Echild)))
        | TKill (j, s) -> (
            let v = nth (List.tl (vpids ()) @ [ 999 ]) j in
            let signum = tree_signals.(s) in
            let got = Proc.kill w ~vpid:v signum in
            match Hashtbl.find_opt m v with
            | Some { mstate = Running; _ } ->
                expect (got = Ok ());
                settle (fun () ->
                    Proc.status_of (handle v) = Some (Proc.Signaled signum));
                m_exit m v (Proc.Signaled signum)
            | Some { mstate = Zombie _; _ } -> expect (got = Ok ())
            | Some { mstate = Reaped; _ } | None -> expect (got = Error `Esrch))
        | TLook j ->
            let v = nth (vpids ()) j in
            let model = List.filter (fun c -> waitable v c <> None) (vpids ()) in
            expect (Proc.getppid (handle v) = (Hashtbl.find m v).mparent);
            expect (List.sort compare (Proc.children (handle v)) = model)
      in
      List.iter
        (fun op ->
          if !ok then begin
            step op;
            expect
              (Proc.live_procs w
              = Hashtbl.fold (fun _ c n -> if c.mstate = Reaped then n else n + 1) m 0)
          end)
        ops;
      (* no ULP outlives the run *)
      List.iter (fun v -> if v <> 1 then finish v 0) (running ()));
  !ok

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
          t "Timers = sorted-list model" timers_ops_arb prop_timers_match_model;
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
          t "Proc tree = POSIX process-tree model" tree_ops_arb
            prop_tree_matches_model;
        ] );
      ( "fd-growth",
        [
          Alcotest.test_case "dup2 onto an ungrown slot" `Quick
            test_fd_dup2_ungrown;
          Alcotest.test_case "lowest free across growth" `Quick
            test_fd_lowest_free_across_growth;
          Alcotest.test_case "capacity unchanged by growth" `Quick
            test_fd_capacity_unchanged;
        ] );
    ]
