(* Spans for the traced run: one per call the benchmark makes into a
   layer's public function, each with a name, start, end, parent span
   and the op id it serves.  Spans live in preallocated arrays (no
   allocation per span, no lock: a slot is claimed by fetch-and-add) and
   are analysed and written out only after the run has ended.  In an
   untraced run [span] costs one atomic load. *)

type t = {
  name : string;
  id : int;
  parent : int;  (** -1 for a root *)
  op : int;  (** -1 until resolved from an ancestor *)
  t0 : float;
  t1 : float;
}

let capacity = 1 lsl 19

type store = {
  names : string array;
  ids : int array;
  parents : int array;
  ops : int array;
  t0s : float array;
  t1s : float array;
}

let enabled = Atomic.make false
let next_id = Atomic.make 0
let next_slot = Atomic.make 0
let dropped = Atomic.make 0

(* Set once by [init], before any fiber runs. *)
let store : store option ref = ref None

let init () =
  store :=
    Some
      {
        names = Array.make capacity "";
        ids = Array.make capacity 0;
        parents = Array.make capacity 0;
        ops = Array.make capacity 0;
        t0s = Array.create_float capacity;
        t1s = Array.create_float capacity;
      }

let set_enabled b = Atomic.set enabled (b && Option.is_some !store)

let record ~id ~parent ~op name t0 t1 =
  match !store with
  | None -> ()
  | Some s ->
      let i = Atomic.fetch_and_add next_slot 1 in
      if i >= capacity then Atomic.incr dropped
      else begin
        s.names.(i) <- name;
        s.ids.(i) <- id;
        s.parents.(i) <- parent;
        s.ops.(i) <- op;
        s.t0s.(i) <- t0;
        s.t1s.(i) <- t1
      end

(* A span id for a span recorded later by hand ([record]); -1 when
   tracing is off, which [record_if] then ignores. *)
let fresh_id () =
  if Atomic.get enabled then Atomic.fetch_and_add next_id 1 else -1

let record_if ~id ~parent ~op name t0 t1 =
  if id >= 0 then record ~id ~parent ~op name t0 t1

(* [span ~parent ?op name f] times [f id], where [id] is this span's id
   (pass it as the [parent] of nested spans; -1 when tracing is off).
   [op] may be filled in by [f]: it is read when the span ends. *)
let span ?(parent = -1) ?op name f =
  if not (Atomic.get enabled) then f (-1)
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let op = match op with Some r -> !r | None -> -1 in
      record ~id ~parent ~op name t0 (Unix.gettimeofday ())
    in
    match f id with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Every span recorded so far.  Call after the run has ended. *)
let collected () =
  match !store with
  | None -> [||]
  | Some s ->
      let n = min capacity (Atomic.get next_slot) in
      Array.init n (fun i ->
          {
            name = s.names.(i);
            id = s.ids.(i);
            parent = s.parents.(i);
            op = s.ops.(i);
            t0 = s.t0s.(i);
            t1 = s.t1s.(i);
          })

(* Give every span without an op id the op of its nearest ancestor
   that has one, so all spans of one op share its id. *)
let resolve_ops spans =
  let by_id = Hashtbl.create (Array.length spans) in
  Array.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec op_of s depth =
    if s.op >= 0 || s.parent < 0 || depth > 64 then s.op
    else
      match Hashtbl.find_opt by_id s.parent with
      | Some p -> op_of p (depth + 1)
      | None -> -1
  in
  Array.map (fun s -> { s with op = op_of s 0 }) spans

(* Durations of the spans named [name], in microseconds, ascending. *)
let durations_us spans name =
  Array.to_list spans
  |> List.filter_map (fun s ->
         if s.name = name then Some ((s.t1 -. s.t0) *. 1e6) else None)
  |> Stats.sorted_of_list

(* Self times of the spans named [name], in microseconds, ascending. *)
let self_times_us spans name =
  let kids = Hashtbl.create 1024 in
  Array.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.t0, s.t1))
    spans;
  Array.to_list spans
  |> List.filter_map (fun s ->
         if s.name = name then
           Some
             (Stats.self_time ~start:s.t0 ~stop:s.t1 (Hashtbl.find_all kids s.id)
             *. 1e6)
         else None)
  |> Stats.sorted_of_list

let write_tsv path spans =
  let oc = open_out path in
  output_string oc "id\tparent\top\tname\tstart_s\tend_s\n";
  Array.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.6f\n" s.id s.parent s.op s.name
        s.t0 s.t1)
    spans;
  close_out oc
