(* The pool of a run's original KCs (the executors of [Blt_rt]).

   A fiber's first coupled section leases a KC: a free one if the free
   list has any, else a fresh one, registered in [all] so the run can
   shut it down at the end.  The fiber keeps it until it finishes; then
   [recycle] pushes it straight back on the free list.  That is safe
   without asking the KC whether it is idle: [Blt_rt.coupled] is the
   only submitter, a fiber finishes only after every coupled section
   it made has woken it, and the KC's FIFO mailbox queues the next
   owner's first section behind the tail of the job that did the
   waking.

   Both lists sit under one mutex, held for one push or pop: a lease
   happens once per coupling fiber, so the lock is cold.  A new KC is
   created outside it.  Polymorphic in the KC so lib/check recompiles
   this exact file, against its traced Mutex, over simulated KCs. *)

type 'kc t = { lock : Mutex.t; mutable free : 'kc list; mutable all : 'kc list }

let create () = { lock = Mutex.create (); free = []; all = [] }

let locked t f =
  (* ulplint: allow raw-mutex-in-fiber -- the KC pool's lock, taken by fibers on any worker domain and by the run's exit; held for one list push or pop, never across a syscall, a wake or a park *)
  Mutex.lock t.lock;
  let r = f () in
  Mutex.unlock t.lock;
  r

let lease t ~create =
  let free =
    locked t (fun () ->
        match t.free with
        | kc :: rest ->
            t.free <- rest;
            Some kc
        | [] -> None)
  in
  match free with
  | Some kc -> kc
  | None ->
      let kc = create () in
      locked t (fun () -> t.all <- kc :: t.all);
      kc

let recycle t kc = locked t (fun () -> t.free <- kc :: t.free)

let all t = locked t (fun () -> t.all)
