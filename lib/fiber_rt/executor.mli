(** A dedicated OS thread with a job mailbox — the real-runtime analogue
    of a BLT's original kernel context.  Jobs run FIFO on the same OS
    thread every time, so thread-keyed state and blocking syscalls stay
    consistent across jobs.

    Under the fiber engine an executor is leased to one fiber at a time
    from its run's pool ({!Kc_pool}): a fiber keeps it from its first
    {!Blt_rt.coupled} until it finishes, then the executor is recycled
    for a later fiber once the old owner's queued jobs have run. *)

type t

val create : unit -> t

val submit : t -> (unit -> unit) -> unit
(** Enqueue a job.  @raise Invalid_argument after {!shutdown}. *)

val executed : t -> int

val failures : t -> int
(** Jobs that raised.  A raising job never kills the executor thread;
    it is counted here and kept in {!last_error}. *)

val last_error : t -> exn option
(** The most recent exception a job raised, if any. *)

val clear_failures : t -> unit
(** Reset {!failures} to 0 and {!last_error} to [None].  The run's KC
    pool ({!Kc_pool}) does this between two leases, so a fiber never
    sees its predecessor's failures. *)

val clear_failures_if_idle : t -> bool
(** {!clear_failures} if no job is queued or running, atomically with
    that check; [true] iff it did.  A job submitted afterwards is not
    covered. *)

val thread_id : t -> int

val shutdown : t -> unit
(** Drain remaining jobs and join the thread. *)
