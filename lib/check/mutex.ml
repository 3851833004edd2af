(* Traced replacement for [Stdlib.Mutex], shadowing it inside lib/check
   so the locked sources compiled here (fd_core.ml, kc_pool.ml,
   interest.ml, ...) are model-checked.

   [lock] is a single guarded scheduling point: the thread is simply not
   enabled while the mutex is held, so blocking costs no spin loop and
   the state space stays finite.  Lock and unlock on the same mutex are
   writes to one object for the conflict relation, which is what makes
   the explorer branch around critical sections. *)

type t = { id : int; mutable locked : bool }

let create () = { id = Sched.fresh_obj (); locked = false }

let lock t =
  Sched.guarded_step ~kind:Sched.Lock ~obj:t.id ~note:"mutex"
    ~enabled:(fun () -> not t.locked)
    (fun () -> t.locked <- true)

let unlock t =
  Sched.atomic_step ~kind:Sched.Unlock ~obj:t.id ~note:"mutex" (fun () ->
      if not t.locked then failwith "Check.Mutex: unlock of an unlocked mutex";
      t.locked <- false)

let try_lock t =
  Sched.atomic_step ~kind:Sched.Lock ~obj:t.id ~note:"try" (fun () ->
      if t.locked then false
      else begin
        t.locked <- true;
        true
      end)
