(** User-level processes on the fiber runtime (substrate S3): private
    fd tables, virtual PIDs, exit/wait semantics and signal delivery,
    each ULP a {!Fiber_rt.Scope}-rooted fiber tree in the shared
    address space.  The API of {!Process} is included here —
    [Proc.spawn], [Proc.waitpid], [Proc.kill] — with the descriptor
    I/O as {!Io} and the lock-free fd and vpid tables re-exported
    below.  A ULP's exit status lives in a {!Fiber_rt.Completion}
    cell, the same one-shot cell fibers and scopes finish.

    The S1 {e simulator} twin of this layer lives in [lib/core/ulp.ml]
    (processes on simulated kernel contexts); this is the production
    stack.  DESIGN.md §5h has the anatomy. *)

module Fd_core = Fd_core
module Table = Proc_table
module Io = Proc_io

include module type of struct
  include Process
end
