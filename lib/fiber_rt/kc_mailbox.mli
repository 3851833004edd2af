(** The mailbox of an original KC ({!Executor}): a FIFO of jobs under
    one mutex, and the KC's sleep on its own {!Parker}.  A [sleeping]
    flag, read and written under the mutex, gives every sleep exactly
    one unpark.  The KC sends its owed wake before each job and at
    exit; its park sends it after releasing the runtime lock.

    Depends only on [Mutex], [Queue] and [Parker]: [lib/check]
    recompiles it over a modelled parker and model-checks a submit and
    a shutdown racing the KC going to sleep, and a completion wake owed
    across the park (the seeded [Check.Buggy_kc_mailbox] twins must be
    caught). *)

type 'job t

val create : unit -> 'job t

val submit : 'job t -> 'job -> bool
(** Queue a job and wake the KC if it sleeps; [false] (nothing queued)
    after {!shutdown}. *)

val shutdown : 'job t -> unit
(** Refuse further jobs and wake the KC if it sleeps: {!serve} returns
    once the queue is drained. *)

val serve : 'job t -> run:('job -> unit) -> unit
(** The KC's loop: [run] each job in FIFO order, sleep while there is
    none, return after {!shutdown} with the queue drained. *)
