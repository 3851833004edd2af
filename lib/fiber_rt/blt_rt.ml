(* The bi-level thread API on the real fiber runtime.

   A fiber (UC) normally runs decoupled on whichever worker domain of
   the fiber engine holds it (the calling domain alone under
   [Fiber.run]).
   [coupled f] is the paper's couple()/decouple() pair: ship [f] to the
   fiber's own executor thread (its original KC), suspend the fiber so
   the scheduler keeps running other fibers, and resume with [f]'s
   result once the executor finishes.  Because each fiber always couples
   to the *same* OS thread -- even after the runnable half of the fiber
   migrates to another domain -- thread-keyed kernel state (and blocking
   syscalls) behave exactly as they would on a plain kernel thread:
   system-call consistency, for real.  KCs are leased per fiber from
   the run's pool and recycled after the fiber finishes (Kc_pool). *)

exception Coupled_raised of exn

(* Run [f] coupled to this fiber's original KC (leased from the run's
   pool on first use and held until the fiber finishes); other fibers
   keep running meanwhile.  Exceptions from [f] re-raise in the fiber,
   so the job itself never raises. *)
let coupled f =
  let e = Fiber.lease_kc () in
  let slot = ref None in
  (* Both wakes are deferred (Parker): the KC is woken when this worker
     parks (or before its next task), the worker when the KC parks (or
     before its next job).  A woken thread then finds the runtime lock
     free instead of blocking on it again. *)
  Fiber.suspend (fun wake ->
      Parker.deferring (fun () ->
          Executor.submit e (fun () ->
              (slot := try Some (Ok (f ())) with exn -> Some (Error exn));
              Parker.deferring wake)));
  match !slot with
  | Some (Ok v) -> v
  | Some (Error exn) -> raise (Coupled_raised exn)
  | None -> assert false

(* The OS thread id of this fiber's original KC (stable across coupled
   calls -- the consistency property). *)
let original_kc_thread_id () = Executor.thread_id (Fiber.lease_kc ())

(* Convenience: run a blocking Unix syscall consistently. *)
let coupled_syscall f = coupled f

(* Sleep without stalling the scheduler: the delay blocks this fiber's
   original KC while every other fiber keeps running. *)
let sleep seconds = coupled (fun () -> Thread.delay seconds)
