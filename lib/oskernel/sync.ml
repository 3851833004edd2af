(* Synchronisation built on the kernel primitives.

   [Semaphore] is the "Linux semaphore (implemented by using futex)" the
   paper uses for the BLOCKING idle policy in Table V.

   [Waitcell] is a one-shot parking spot supporting both of the paper's
   idle policies: BLOCKING (futex semaphore: frees the CPU, expensive
   wake) and BUSYWAIT (spinning occupies the CPU, wake is one cache-line
   handoff). *)

open Types

module Semaphore = struct
  type t = { word : Futex.word; reg : Futex.t }

  let create ?(value = 0) reg = { word = Futex.new_word ~init:value reg; reg }

  let value s = Futex.get s.word

  (* sem_wait: fast path decrements; otherwise futex-wait until posted. *)
  let rec wait k task s =
    let v = Futex.get s.word in
    if v > 0 then begin
      Futex.set s.word (v - 1);
      (* fast path is a couple of user-level atomics *)
      Kernel.burn k task (Kernel.cost k).Arch.Cost_model.queue_op
    end
    else
      match Futex.wait k task s.word ~expected:v with
      | `Waited | `Value_changed -> wait k task s

  (* sem_trywait: succeed only if a unit is immediately available. *)
  let try_wait k task s =
    Kernel.burn k task (Kernel.cost k).Arch.Cost_model.queue_op;
    let v = Futex.get s.word in
    if v > 0 then begin
      Futex.set s.word (v - 1);
      true
    end
    else false

  (* sem_timedwait: like [wait] but gives up after [timeout] seconds.
     Returns whether the unit was obtained. *)
  let rec wait_timeout k task s ~timeout =
    let t0 = Kernel.now k in
    let v = Futex.get s.word in
    if v > 0 then begin
      Futex.set s.word (v - 1);
      Kernel.burn k task (Kernel.cost k).Arch.Cost_model.queue_op;
      true
    end
    else if timeout <= 0.0 then false
    else
      match Futex.wait_timeout k task s.word ~expected:v ~timeout with
      | `Timed_out -> false
      | `Waited | `Value_changed ->
          let remaining = timeout -. (Kernel.now k -. t0) in
          wait_timeout k task s ~timeout:remaining

  (* sem_post: increment and wake one sleeper. *)
  let post k task s =
    Futex.set s.word (Futex.get s.word + 1);
    if Futex.waiter_count s.word > 0 then ignore (Futex.wake k task s.word 1)
    else Kernel.burn k task (Kernel.cost k).Arch.Cost_model.queue_op
end

module Waitcell = struct
  type policy = Busywait | Blocking

  let policy_to_string = function
    | Busywait -> "BUSYWAIT"
    | Blocking -> "BLOCKING"

  type t = {
    policy : policy;
    sem : Semaphore.t;
    mutable parked : task option;
    mutable signalled : bool;
  }

  let create ~policy reg =
    { policy; sem = Semaphore.create ~value:0 reg; parked = None; signalled = false }

  let policy t = t.policy

  (* Park the calling task until [signal].  Consumes one signal; a signal
     arriving before [park] is not lost. *)
  let park k task cell =
    match cell.policy with
    | Blocking ->
        (* the semaphore already holds any early signal *)
        cell.parked <- Some task;
        Semaphore.wait k task cell.sem;
        cell.parked <- None
    | Busywait ->
        if cell.signalled then begin
          cell.signalled <- false;
          (* a poll iteration still notices with cache-hit latency only *)
          Kernel.burn k task (Kernel.cost k).Arch.Cost_model.queue_op
        end
        else begin
          cell.parked <- Some task;
          Kernel.busywait_park k task;
          cell.parked <- None;
          cell.signalled <- false
        end

  (* Wake the parked task (or bank the signal if none is parked yet). *)
  let signal k task cell =
    match cell.policy with
    | Blocking -> Semaphore.post k task cell.sem
    | Busywait -> (
        cell.signalled <- true;
        (* the store itself is cheap for the signaller *)
        Kernel.burn k task (Kernel.cost k).Arch.Cost_model.queue_op;
        match cell.parked with
        | Some sleeper -> Kernel.busywait_wake k sleeper
        | None -> ())
end
