(* The library interface module: [Proc] IS the process layer
   ([include Process] — Proc.spawn / Proc.waitpid / Proc.kill), with
   the I/O entry points as [Proc.Io] and the fd table
   re-exported for the tests, models and the interleaving checker's
   scenarios. *)

module Fd_core = Fd_core
module Io = Proc_io
include Process
