(* The reactor's deadlines on [Sim.Event_heap]: a binary min-heap keyed
   by (absolute deadline, insertion number), so due timers pop in
   deadline order with FIFO ties.  A shard holds one to three timers in
   practice, so the heap's O(log n) insert costs nothing and its O(1)
   head read is what the poll loop pays per round.

   Concurrency: the heap is owned by one reactor shard; only a timer's
   [state] is atomic, so any thread can cancel (or fire) it, racing the
   owner's fire -- the CAS decides.  Cancel never touches the heap: the
   dead entry is popped when it reaches the head. *)

module Heap = Sim.Event_heap

type tstate = Pending | Fired | Cancelled

type timer = { at : float; action : unit -> unit; state : tstate Atomic.t }

type t = { heap : timer Heap.t; mutable next_seq : int }

let create () = { heap = Heap.create (); next_seq = 0 }

let make ~at action = { at; action; state = Atomic.make Pending }

let add t tm =
  Heap.push t.heap ~time:tm.at ~seq:t.next_seq tm;
  t.next_seq <- t.next_seq + 1

let cancel tm = Atomic.compare_and_set tm.state Pending Cancelled

let fire tm =
  if Atomic.compare_and_set tm.state Pending Fired then begin
    tm.action ();
    true
  end
  else false

(* The head after popping every resolved (cancelled or fired) entry
   that sits in front of it. *)
let rec live_head t =
  match Heap.peek t.heap with
  | Some e when Atomic.get e.payload.state <> Pending ->
      ignore (Heap.pop t.heap);
      live_head t
  | head -> head

let next_due t = Option.map (fun (e : timer Heap.entry) -> e.time) (live_head t)

let advance t ~now =
  let rec go n =
    match live_head t with
    | Some e when not (e.time > now) (* a NaN deadline counts as due *) ->
        ignore (Heap.pop t.heap);
        go (if fire e.payload then n + 1 else n)
    | _ -> n
  in
  go 0

let fire_all t =
  let rec go n =
    match Heap.pop t.heap with
    | None -> n
    | Some e -> go (if fire e.payload then n + 1 else n)
  in
  go 0
