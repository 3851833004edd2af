(* TRACED_ATOMIC — the instrumentation seam between the lock-free
   runtime structures and the deterministic interleaving checker
   (lib/check).

   The checker does not functorize the hot paths: [Atomic_deque],
   [Mpsc_queue], [Sync] and the rest are compiled a *second* time inside
   lib/check (dune [copy_files#]) where sibling modules named [Atomic],
   [Mutex] and [Fiber] shadow the real ones with single-threaded,
   effect-instrumented models.  The production build keeps calling
   [Stdlib.Atomic] primitives directly — zero overhead, no indirection.

   This signature pins down the contract both sides must satisfy.  The
   static checks live in lib/check/seam.ml: the traced [Check.Atomic]
   and the real [Atomic] below are both coerced to [TRACED_ATOMIC], so
   drift on either side is a compile error. *)

module type TRACED_ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit
end

(* The production instance: the real thing, re-exported untouched. *)
module Real : TRACED_ATOMIC with type 'a t = 'a Atomic.t = Atomic
