(** The rule set: each rule statically enforces one of the runtime's
    discipline invariants (DESIGN.md section 5d). *)

type ast_rule = {
  name : string;
  severity : Finding.severity;
  doc : string;
  in_scope : string list -> bool;  (** on path segments *)
  check : file:string -> Parsetree.structure -> Finding.t list;
}

val fiber_scope : string list -> bool
(** lib/fiber_rt, lib/net, lib/proc, lib/workload, examples, bench: the
    directories whose code runs on (or spawns onto) worker domains.
    Shared with the interprocedural rules in {!Callgraph}. *)

val blocking_in_fiber : ast_rule
val atomic_get_then_set : ast_rule
val atomic_check_then_faa : ast_rule
val syscall_consistency : ast_rule
val raw_fd_in_proc : ast_rule

val ast_rules : ast_rule list
(** The rules run on every in-scope walked file. *)

val transitive_blocking_name : string
val transitive_blocking_doc : string
val park_while_locked_name : string
val park_while_locked_doc : string
val lock_order_inversion_name : string
val lock_order_inversion_doc : string
val missed_cancellation_name : string
val missed_cancellation_doc : string
(** Metadata for the interprocedural rules (DESIGN.md section 5i);
    the engine itself lives in {!Summary} / {!Callgraph} /
    {!Lockgraph}. *)

val seam_name : string
val seam_doc : string

val check_seam :
  file:string -> dune:string -> Parsetree.structure -> Finding.t list
(** Applied to each source a [copy_files#] stanza recompiles into a
    checker library: flags [Stdlib.Atomic]/[Stdlib.Mutex] references
    that escape the traced seam. *)

val mli_name : string
val mli_doc : string

val mli_in_scope : string list -> bool
(** lib/**, minus lib/check. *)

val check_mli : file:string -> Finding.t list
(** Flags a lib module with no sibling .mli. *)

val catalog : (string * Finding.severity * string) list
(** Every rule (including the lint's own diagnostics) with severity and
    rationale, for [--list-rules] and the docs. *)
