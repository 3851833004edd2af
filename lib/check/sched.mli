(** Deterministic interleaving checker ("dscheck-lite") for the
    lock-free fiber-runtime structures.

    A scenario is a closure building fresh shared state and returning
    simulated-thread bodies plus a post-condition; every operation on
    the traced shims ({!Atomic}, {!Mutex}, {!Fiber}) inside a thread
    body is a scheduling point.  {!check} explores interleavings
    exhaustively (DFS with a partial-order-reduction-lite pruning of
    commuting pairs), {!fuzz} samples random schedules with replayable
    seeds, {!replay} re-executes an explicit schedule. *)

(** {1 Operations} *)

type kind =
  | Start  (** thread becomes runnable; no memory effect *)
  | Get
  | Set
  | Exchange
  | Cas
  | Faa
  | Lock
  | Unlock
  | Wait  (** blocked until a predicate over raw state holds *)

val kind_to_string : kind -> string

type opinfo = { kind : kind; obj : int; note : string }
type step = { s_tid : int; s_op : opinfo }

val conflicts : opinfo -> opinfo -> bool
(** Same object, at least one write: the pair does not commute. *)

(** {1 Shim plumbing}

    Used by the traced {!Atomic} / {!Mutex} / {!Fiber} models; scenario
    code normally goes through those instead.  Outside a checked thread
    (setup and post-condition closures, or plain code) the operation
    executes directly. *)

val fresh_obj : unit -> int

val atomic_step : kind:kind -> obj:int -> note:string -> (unit -> 'a) -> 'a

val guarded_step :
  kind:kind ->
  obj:int ->
  note:string ->
  enabled:(unit -> bool) ->
  (unit -> 'a) ->
  'a
(** The thread is not runnable until [enabled ()] holds.  [enabled]
    must only read raw state ({!Atomic.peek}), never perform traced
    operations. *)

val wait_until : on:int -> (unit -> bool) -> unit
(** Block the calling thread until the predicate holds; [on] is the
    object id the predicate reads (so wakeup writes conflict with the
    wait and the explorer branches around them). *)

val thread_key : unit -> (int * int) option
(** The running simulated thread, as (run, thread id): a key for state a
    shim keeps per OS thread (the owed wake of {!Parker}).  [None]
    outside a checked thread. *)

(** {1 Scenarios and results} *)

exception Deadlock of string
exception Too_many_steps of int

exception Nondeterministic of string
(** Raised (not reported as a bug) when a replayed choice is impossible:
    the scenario behaved differently across runs, e.g. it read the
    clock or real randomness. *)

type stats = {
  schedules : int;  (** distinct interleavings fully executed *)
  steps : int;  (** traced operations executed, all runs *)
  pruned : int;  (** commuting alternatives skipped by DPOR-lite *)
  max_depth : int;
  complete : bool;  (** false when [max_schedules] capped the DFS *)
}

type failure = {
  f_reason : string;
  f_trace : step list;  (** oldest first *)
  f_schedule : int list;  (** thread choice at each depth *)
  f_seed : int option;  (** set when found by the fuzzer *)
}

type outcome = Pass of stats | Bug of failure * stats

val check :
  ?max_schedules:int ->
  ?max_steps:int ->
  (unit -> (unit -> unit) list * (unit -> unit)) ->
  outcome
(** [check setup] explores interleavings of the threads returned by
    [setup].  Each run calls [setup] afresh (it must create all shared
    state itself and be deterministic); after every thread finishes,
    the returned post-condition runs.  A deadlock, an exception from a
    thread, or a post-condition failure is a [Bug] carrying the
    schedule trace. *)

(** {1 Random-schedule fuzzing} *)

type fuzz_outcome =
  | Fuzz_pass of { runs : int; steps : int }
  | Fuzz_bug of failure

val fuzz :
  ?runs:int ->
  ?max_steps:int ->
  seed:int ->
  (unit -> (unit -> unit) list * (unit -> unit)) ->
  fuzz_outcome
(** [runs] random schedules with per-run seeds derived from [seed]; a
    failure carries the exact per-run seed.  If the [CHECK_SEED]
    environment variable is set, only that schedule runs — the replay
    path for a previously printed failure. *)

val fuzz_one :
  ?max_steps:int ->
  seed:int ->
  (unit -> (unit -> unit) list * (unit -> unit)) ->
  (int, failure) result
(** One random schedule, reproducible from [seed] alone; [Ok steps] on
    success. *)

val replay :
  schedule:int list ->
  (unit -> (unit -> unit) list * (unit -> unit)) ->
  (int, failure) result
(** Re-execute an explicit schedule (an [f_schedule] from a failure). *)

(** {1 Reporting} *)

val failure_to_string : failure -> string
(** Reason, schedule, reproduction seed, and the step-by-step trace as
    a {!Report.Table}. *)

val print_failure : failure -> unit
val dump_failure : file:string -> failure -> unit
val pp_stats : Format.formatter -> stats -> unit
