(** User-level processes on the fiber runtime (substrate S3): private
    fd tables, virtual PIDs, exit/wait semantics and signal delivery,
    each ULP a {!Fiber_rt.Scope}-rooted fiber tree in the shared
    address space.  The API of {!Process} is included here —
    [Proc.spawn], [Proc.waitpid], [Proc.kill] — with the descriptor
    I/O as {!Io} and the fd table ({!Fd_core}: writes under one lock
    per table, lookups lock-free) re-exported below.  The
    process tree (vpids, parents, children, exit statuses and parked
    waiters) sits under one lock per world.

    The S1 {e simulator} twin of this layer lives in [lib/core/ulp.ml]
    (processes on simulated kernel contexts); this is the production
    stack.  DESIGN.md §5h has the anatomy. *)

module Fd_core = Fd_core
module Io = Proc_io

include module type of struct
  include Process
end
