(* Model of [Fiber_rt.Parker] for lib/check: one permit under the traced
   Mutex, and each simulated thread's owed wake.

   [park] sends the caller's owed wake, then is a wait on the permit
   (a guarded step on the mutex's object, so the lock round trip of an
   [unpark] conflicts with it and the explorer branches around it),
   then clears it under the lock.  The model defers every wake made
   inside [deferring] while the caller's slot is free: all simulated
   threads share one domain and one CPU, the case where production
   defers.  A dropped owed wake leaves its target parked for good,
   which the checker reports as a deadlock. *)

type t = { m : Mutex.t; mutable permit : bool }

let create () = { m = Mutex.create (); permit = false }

(* Per simulated thread, keyed by [Sched.thread_key]: whether its wakes
   are deferred, and the one it owes. *)
let deferred : (int * int, unit) Hashtbl.t = Hashtbl.create 8
let owed : (int * int, t) Hashtbl.t = Hashtbl.create 8

let send t =
  Mutex.lock t.m;
  t.permit <- true;
  Mutex.unlock t.m

let unpark t =
  match Sched.thread_key () with
  | Some k when Hashtbl.mem deferred k && not (Hashtbl.mem owed k) ->
      Hashtbl.replace owed k t
  | _ -> send t

let flush () =
  match Sched.thread_key () with
  | Some k -> (
      match Hashtbl.find_opt owed k with
      | Some t ->
          Hashtbl.remove owed k;
          send t
      | None -> ())
  | None -> ()

let deferring f =
  match Sched.thread_key () with
  | None -> f ()
  | Some k ->
      Hashtbl.replace deferred k ();
      Fun.protect ~finally:(fun () -> Hashtbl.remove deferred k) f

(* ---- checker extras, for the seeded twins ---- *)

(* The sleep alone: wait for the permit, then clear it. *)
let sleep t =
  Sched.wait_until ~on:t.m.Mutex.id (fun () -> t.permit);
  Mutex.lock t.m;
  t.permit <- false;
  Mutex.unlock t.m

(* Forget the caller's owed wake without sending it. *)
let drop_owed () =
  match Sched.thread_key () with Some k -> Hashtbl.remove owed k | None -> ()

let park t =
  flush ();
  sleep t
