(** The fd-table core: refcounted handles in lazily grown slot tables
    — the machinery behind each ULP's private descriptor namespace
    (DESIGN.md §5h).  Generic over the resource ([Unix.file_descr] in
    production; an instrumented token under lib/check, where this file
    is recompiled against the traced shims and model-checked, its
    refcount against the seeded [Buggy_fd] twin). *)

(** {1 Refcounted resources} *)

type 'a res
(** One shared resource and its reference count: one reference per
    table slot naming it.  [destroy] runs exactly once, when the last
    reference drops. *)

val resource : destroy:('a -> unit) -> 'a -> 'a res
(** A fresh resource with refcount 1 (the creating slot's reference). *)

val value : 'a res -> 'a

val refs : 'a res -> int
(** Current reference count (racy snapshot; 0 once destroyed). *)

val retain : 'a res -> bool
(** Take one more reference.  [false] if the count already hit zero —
    the handle is dead and must not be resurrected (the dup-vs-close
    race resolves to EBADF, never use-after-close). *)

val release : 'a res -> unit
(** Drop one reference; the 1 → 0 crossing runs [destroy], exactly
    once across racing releasers. *)

(** {1 Slot tables} *)

type 'a table
(** One descriptor namespace: slots (descriptor = index), each holding
    at most one resource reference.  A fresh table holds no slot and
    grows on demand up to its capacity; a slot not grown yet is free.
    Every write takes the table's lock and releases a dropped reference
    after the unlock; {!get} takes no lock. *)

val create : capacity:int -> 'a table
(** @raise Invalid_argument when [capacity < 1].  Slots beyond
    [capacity] behave as EMFILE ({!alloc} returns [None]); slots below
    it are allocated when first needed, not here. *)

val capacity : 'a table -> int

val alloc : 'a table -> 'a res -> int option
(** Claim the lowest free slot (POSIX allocation order), growing the
    table when every grown slot is taken, and take ownership of the
    caller's reference; [None] when all [capacity] slots are full or
    the table is {!shut} (the caller still owns the reference and must
    {!release} it). *)

val get : 'a table -> int -> 'a res option
(** The current occupant; [None] for a free, not yet grown or
    out-of-range slot.  The returned reference is NOT retained —
    {!retain} before using it across a suspension point. *)

val close : 'a table -> int -> bool
(** Empty the slot and release its reference; [false] on EBADF (free,
    not yet grown or out-of-range). *)

val close_all : 'a table -> int
(** Close every open slot; returns the number released. *)

val shut : 'a table -> int
(** {!close_all} at a ULP's exit, which also closes the table for good:
    every later {!alloc} returns [None]. *)

val is_shut : 'a table -> bool

val count : 'a table -> int
(** Open slots (racy snapshot). *)

val dup : 'a table -> int -> (int, [ `Badf | `Mfile ]) result
(** POSIX [dup]: retain the occupant of the source slot and bind it to
    the lowest free slot. *)

val dup2 : 'a table -> src:int -> dst:int -> (unit, [ `Badf ]) result
(** POSIX [dup2]: make [dst] name [src]'s resource, closing an open
    [dst] first — displaced and released exactly once.  A [dst] not
    grown yet grows the table to cover it; EBADF only when [dst] is
    outside [0, capacity).
    [src = dst] on an open descriptor succeeds without closing
    anything. *)
