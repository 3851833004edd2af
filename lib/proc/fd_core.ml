(* The fd-table core: refcounted handles in lazily grown slot tables, the
   lock-free heart of the S3 process layer's private descriptor
   namespaces (DESIGN.md section 5h).

   A [res] is one host resource (in production a [Unix.file_descr])
   plus a reference count: one reference per table slot that names it,
   so two ULPs sharing an accepted socket hold rc = 2 and the host fd
   is destroyed exactly once, when the LAST slot drops.  The count is
   walked by CAS only:

   - [retain] is a CAS loop that REFUSES to resurrect from zero: a dup
     racing the last close either lands before it (rc 1 -> 2) or
     observes the death and reports the descriptor stale.  A plain
     increment here is the classic use-after-close.
   - [release] is a fetch-and-add; exactly one caller observes the
     1 -> 0 crossing and runs [destroy].  A get-then-set here lets two
     racing closers both read 2 and both store 1 -- the host fd leaks
     (or, paired with a resurrecting retain, double-closes); that exact
     twin is seeded in lib/check/buggy_fd.ml and caught by the
     explorer.

   A [table] is one ULP's descriptor namespace: an array of slots, each
   an atomic [res option], published through one atomic and grown on
   demand up to [cap].  A fresh table holds [initial_slots] slots, so a
   ULP that opens a handful of descriptors never pays for the 256 it
   could open.  Allocation scans from slot 0 and claims the first empty
   by CAS -- POSIX's lowest-free-descriptor rule -- and [dup2] displaces
   the target slot by [exchange], so a racing close of the same slot
   sees the old occupant exactly once.

   Growth doubles the array and copies the SAME slot atomics into the
   larger one before publishing it by CAS: a claim, close or exchange
   that lands on a slot through the old array is seen through every
   later array, because both name one atomic.  Copying slot CONTENTS
   into fresh atomics instead would drop any write that lands on the
   old slot after the copy read it (a close resurrected, an alloc lost)
   -- that twin is seeded in lib/check/buggy_fd_grow.ml.  A slot beyond
   the grown array is free: [get] and [close] see EBADF there, and
   [close_all] / [count] walk only the grown array.

   This file is recompiled into lib/check against the traced shims
   (copy_files# in lib/check/dune), so it sticks to the Atomic + Array
   vocabulary: no Unix, no Fiber, no clocks. *)

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

type 'a table = { cap : int; slots : 'a res option Atomic.t array Atomic.t }

let initial_slots = 8

let create ~capacity =
  if capacity < 1 then invalid_arg "Fd_core.create: capacity must be >= 1";
  let n = min capacity initial_slots in
  let slots = Array.init n (fun _ -> Atomic.make None) in
  { cap = capacity; slots = Atomic.make slots }

let capacity t = t.cap

(* The grown array covering slot [i] (< cap): double until it does,
   reusing every existing slot atomic, and publish by CAS.  A losing
   CAS retries against the winner's array, which is a prefix-extension
   of the one this attempt copied. *)
let rec grow t i =
  let a = Atomic.get t.slots in
  let n = Array.length a in
  if i < n then a
  else
    let rec size m = if m > i then m else size (2 * m) in
    let m = min t.cap (size (2 * n)) in
    let b = Array.init m (fun j -> if j < n then a.(j) else Atomic.make None) in
    if Atomic.compare_and_set t.slots a b then b else grow t i

(* Lowest free slot, by CAS from index 0 up: a failed claim means the
   slot just filled, so move on; a slot freed behind the scan is the
   same transient POSIX allows (the "lowest" is evaluated at claim
   time).  Scanning past the grown array grows it. *)
let alloc t r =
  let rec go a i =
    if i < Array.length a then
      let s = a.(i) in
      match Atomic.get s with
      | None ->
          if Atomic.compare_and_set s None (Some r) then Some i else go a i
      | Some _ -> go a (i + 1)
    else if i >= t.cap then None
    else go (grow t i) i
  in
  go (Atomic.get t.slots) 0

let get t i =
  let a = Atomic.get t.slots in
  if i >= 0 && i < Array.length a then Atomic.get a.(i) else None

let close t i =
  let a = Atomic.get t.slots in
  if i < 0 || i >= Array.length a then false
  else
    match Atomic.exchange a.(i) None with
    | None -> false
    | Some r ->
        release r;
        true

let close_all t =
  let a = Atomic.get t.slots in
  let n = ref 0 in
  (* ulplint: allow missed-cancellation-point -- bounded sweep of the grown slot array (at most the table's capacity) at table teardown, when the owning ULP is already exiting; close is the table's own refcounted entry point and never parks *)
  for i = 0 to Array.length a - 1 do
    if close t i then incr n
  done;
  !n

let count t =
  let n = ref 0 in
  Array.iter
    (fun s -> if Atomic.get s <> None then incr n)
    (Atomic.get t.slots);
  !n

let dup t i =
  match get t i with
  | None -> Error `Badf
  | Some r -> (
      if not (retain r) then Error `Badf
      else
        match alloc t r with
        | Some j -> Ok j
        | None ->
            release r;
            Error `Mfile)

(* POSIX dup2: [dst] names the same resource as [src]; an open [dst] is
   closed first -- here in one [exchange], so a concurrent close of the
   same slot sees the displaced occupant exactly once.  A [dst] beyond
   the grown array grows it first; only [dst >= cap] is EBADF.  [src] =
   [dst] on an open descriptor is a no-op that succeeds. *)
let dup2 t ~src ~dst =
  if dst < 0 || dst >= t.cap then Error `Badf
  else
    match get t src with
    | None -> Error `Badf
    | Some r ->
        if src = dst then Ok ()
        else if not (retain r) then Error `Badf
        else begin
          (match Atomic.exchange (grow t dst).(dst) (Some r) with
          | None -> ()
          | Some old -> release old);
          Ok ()
        end
