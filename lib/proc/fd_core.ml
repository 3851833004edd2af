(* The fd-table core: refcounted handles in lazily grown slot tables,
   the heart of the S3 process layer's private descriptor namespaces
   (DESIGN.md section 5h).

   A [res] is one host resource (in production a [Unix.file_descr])
   plus a reference count, one per table slot that names it: two ULPs
   sharing a socket hold rc = 2, and the host fd is destroyed once,
   when the LAST slot drops.  Lookups take references without a lock,
   so the count is walked by CAS: [retain] refuses to resurrect from
   zero (a plain increment is the classic use-after-close), and
   [release] is a fetch-and-add whose 1 -> 0 crossing runs [destroy]
   exactly once (a get-then-set loses that crossing; the twin is seeded
   in lib/check/buggy_fd.ml).

   A [table] is one ULP's namespace: an array of atomic slots that
   starts empty, grows to [initial_slots] at the first alloc and
   doubles on demand up to [cap], so a ULP pays for the descriptors it
   opens.  Every write -- alloc, close, dup, dup2, growth, the sweeps --
   takes the table's one mutex, as Linux's files_struct takes
   file_lock; only the ULP's own fibers and the odd share into it
   contend, so it is taken plainly.  A critical section does no
   syscall, park or wake: a dropped reference is released, and its
   host fd closed, after the unlock.  Under the lock "lowest free" is
   exact.  [shut], the exit sweep, also closes the table for good, so a
   late share or adopt into an exited ULP fails instead of binding a
   reference nobody will release.

   Lookups take no lock: [get] loads the array and the slot, and the
   caller [retain]s what it read.  Growth copies the SAME slot atomics
   into the larger array, so a lookup through the old array reads the
   slots later writes land on.  No re-check follows the [retain]: a
   [res] is never reused, so a lookup racing a close pins a live
   handle or gets EBADF.

   Recompiled into lib/check against the traced Atomic and Mutex
   (copy_files# in lib/check/dune): no Unix, no Fiber, no clocks. *)

type 'a res = { v : 'a; rc : int Atomic.t; destroy : 'a -> unit }

let resource ~destroy v = { v; rc = Atomic.make 1; destroy }
let value r = r.v
let refs r = Atomic.get r.rc

let rec retain r =
  let n = Atomic.get r.rc in
  if n <= 0 then false (* dead: never resurrect a closed handle *)
  else if Atomic.compare_and_set r.rc n (n + 1) then true
  else retain r

let release r = if Atomic.fetch_and_add r.rc (-1) = 1 then r.destroy r.v

type 'a table = {
  cap : int;
  lock : Mutex.t; (* every write to [slots] and [shut] *)
  slots : 'a res option Atomic.t array Atomic.t; (* read lock-free by [get] *)
  mutable shut : bool; (* the owner exited: no alloc ever again *)
}

let initial_slots = 8

let create ~capacity =
  if capacity < 1 then invalid_arg "Fd_core.create: capacity must be >= 1";
  { cap = capacity; lock = Mutex.create (); slots = Atomic.make [||]; shut = false }

let capacity t = t.cap

let locked t f =
  (* ulplint: allow raw-mutex-in-fiber -- the fd table's lock, taken by the owning ULP's fibers and by a share into it, on any worker domain; held for a scan of at most [cap] slots and at most one array copy, never across a syscall, a wake or a park *)
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

(* ---------- the next two run locked ---------- *)

(* The grown array covering slot [i] (< cap): start at
   [initial_slots], double until it covers [i], reuse every existing
   slot atomic, and publish it. *)
let grow t i =
  let a = Atomic.get t.slots in
  let n = Array.length a in
  if i < n then a
  else
    let rec size m = if m > i then m else size (2 * m) in
    let m = min t.cap (size (max initial_slots (2 * n))) in
    let b = Array.init m (fun j -> if j < n then a.(j) else Atomic.make None) in
    (* ulplint: allow atomic-get-then-set -- growth runs under the table lock, which every writer of [slots] holds; the lock-free readers only load it *)
    Atomic.set t.slots b;
    b

(* Bind [r] to the lowest free slot (a slot past the grown array is
   free), growing the table to cover it. *)
let claim t r =
  let a = Atomic.get t.slots in
  (* ulplint: allow missed-cancellation-point -- a scan of at most [cap] slots under the table lock; a cancellation check here would park while the lock is held *)
  let rec free i =
    if i < Array.length a && Atomic.get a.(i) <> None then free (i + 1) else i
  in
  let i = free 0 in
  if i >= t.cap then None
  else begin
    Atomic.set (grow t i).(i) (Some r);
    Some i
  end

(* ---------- the entry points ---------- *)

let get t i =
  let a = Atomic.get t.slots in
  if i >= 0 && i < Array.length a then Atomic.get a.(i) else None

let alloc t r = locked t (fun () -> if t.shut then None else claim t r)

let close t i =
  let old =
    locked t (fun () ->
        let a = Atomic.get t.slots in
        if i >= 0 && i < Array.length a then Atomic.exchange a.(i) None
        else None)
  in
  Option.iter release old;
  Option.is_some old

(* Empty every grown slot, and with [shut] close the table for good, in
   one critical section; release after it, in slot order. *)
let sweep ~shut t =
  let rs =
    locked t (fun () ->
        if shut then t.shut <- true;
        Array.fold_right
          (fun s rs ->
            match Atomic.exchange s None with None -> rs | Some r -> r :: rs)
          (Atomic.get t.slots) [])
  in
  List.iter release rs;
  List.length rs

let close_all t = sweep ~shut:false t
let shut t = sweep ~shut:true t
let is_shut t = locked t (fun () -> t.shut)

let count t =
  let n = ref 0 in
  Array.iter
    (fun s -> if Atomic.get s <> None then incr n)
    (Atomic.get t.slots);
  !n

(* Under the lock the source slot's own reference keeps its count at 1
   or more, so the extra reference is a plain increment. *)
let dup t i =
  locked t (fun () ->
      match get t i with
      | None -> Error `Badf
      | Some r -> (
          match claim t r with
          | Some j ->
              Atomic.incr r.rc;
              Ok j
          | None -> Error `Mfile))

(* POSIX dup2: [dst] names the same resource as [src]; an open [dst] is
   closed first, its reference released after the unlock.  A [dst]
   beyond the grown array grows it first; only [dst >= cap] is EBADF.
   [src] = [dst] on an open descriptor is a no-op that succeeds. *)
let dup2 t ~src ~dst =
  if dst < 0 || dst >= t.cap then Error `Badf
  else
    locked t (fun () ->
        match get t src with
        | None -> Error `Badf
        | Some _ when src = dst -> Ok None
        | Some r ->
            Atomic.incr r.rc;
            Ok (Atomic.exchange (grow t dst).(dst) (Some r)))
    |> Result.map (Option.iter release)
