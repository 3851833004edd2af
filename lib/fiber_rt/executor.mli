(** A dedicated OS thread with a job mailbox — the real-runtime analogue
    of a BLT's original kernel context: it runs its fiber's coupled
    sections and nothing else.  Jobs run FIFO on the same OS thread
    every time, so thread-keyed state and blocking syscalls stay
    consistent across jobs.

    Under the fiber engine an executor is leased to one fiber at a time
    from its run's pool ({!Kc_pool}): a fiber keeps it from its first
    {!Blt_rt.coupled} until it finishes, then it goes straight back to
    the pool.  {!Blt_rt.coupled} is the runtime's only submitter. *)

type t

val create : unit -> t

val submit : t -> (unit -> unit) -> unit
(** Enqueue a job.  A job that raises is dropped and the thread carries
    on with the next one.  @raise Invalid_argument after {!shutdown}. *)

val thread_id : t -> int
(** The OS thread id every job runs on. *)

val shutdown : t -> unit
(** Drain remaining jobs and join the thread. *)
