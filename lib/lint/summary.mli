(** Pass 1 of the interprocedural engine (DESIGN.md section 5i): one
    module-qualified summary per function — calls out (with the locks
    held at each site), lock acquisitions (with the locks already
    held), direct blocking-syscall use, and loops — extracted from the
    untyped AST with a shallow held-lock abstract interpretation
    (branches re-join on the intersection; anonymous closures reset the
    held set; [with_lock]-style bodies and let-bound local functions
    inherit it; [Condition.wait c m] releases [m] around the park). *)

type lock_kind = Raw | Fiber_mutex

val kind_to_string : lock_kind -> string

type lock_expr =
  | Lpath of string list  (** an identifier path: [order_a], [T.lock] *)
  | Lfield of string      (** a record projection: [t.mutex] -> "mutex" *)
  | Lother of string      (** anything else, printed *)

type lock = {
  lk_expr : lock_expr;
  lk_kind : lock_kind;
  lk_module : string list;  (** module prefix of the use site *)
}

type call = {
  c_path : string list;  (** Stdlib-stripped ident path, as written *)
  c_line : int;
  c_col : int;
  c_coupled : bool;      (** inside a coupled argument *)
  c_held : lock list;    (** locks held at the call, outermost first *)
}

type acquire = {
  a_lock : lock;
  a_line : int;
  a_col : int;
  a_held : lock list;    (** locks already held when this one is taken *)
}

type loop = {
  l_desc : string;       (** "while loop" / "for loop" / "recursive function f" *)
  l_line : int;
  l_col : int;
  l_calls : call list;   (** calls inside the body, self-calls excluded *)
  l_rmw : bool;          (** body performs an atomic RMW: a retry loop *)
}

type fn = {
  fn_name : string;      (** fully qualified: ["Sync.Mutex.lock"] *)
  fn_file : string;
  fn_line : int;
  mutable fn_calls : call list;
  mutable fn_acquires : acquire list;
  mutable fn_blocks : (string * int * int) option;
      (** direct blocking leaf (description, line, col), if any *)
  mutable fn_loops : loop list;
}

type file_summary = {
  fs_file : string;
  fs_module : string;    (** module name derived from the filename *)
  fs_fns : fn list;      (** source order; module-level code under "(init)" *)
  fs_lockdefs : (string * lock_kind * int) list;
      (** module-level lock bindings: qualified name, kind, def line *)
  fs_refs_proc : bool;   (** the file references Proc / Proc_io / Process *)
}

val blocking_leaf : string list -> string option
(** The same leaf set as the direct blocking-in-fiber rule. *)

val same_lock : lock -> lock -> bool

val of_structure :
  file:string -> waived_blocking:(int -> bool) -> Parsetree.structure ->
  file_summary
(** [waived_blocking line] is true when a blocking-in-fiber waiver
    covers [line]; a waived leaf does not mark its function may-block,
    so one written exemption at a seam (Clock.now) keeps every caller
    clean instead of demanding a waiver per transitive path. *)
