(** Parsing and the shared AST traversals the rules are built from
    (compiler-libs: Pparse + Ast_iterator, read-only). *)

val parse_impl : string -> (Parsetree.structure, string) result
(** Parse a .ml file; [Error] carries a one-line message. *)

val path_segments : string -> string list
(** Split a path on ['/'], dropping empty and ["."] segments. *)

val has_pair : string -> string -> string list -> bool
(** [has_pair a b segs]: [a] directly followed by [b] somewhere. *)

val has_seg : string -> string list -> bool

val flatten : Longident.t -> string list
(** Like [Longident.flatten] but total ([[]] on [Lapply]). *)

val drop_stdlib : string list -> string list
(** Normalize an ident path: ["Stdlib" :: p] becomes [p]. *)

val ident_of_expr : Parsetree.expression -> string list option
(** The flattened path of a [Pexp_ident], [None] otherwise. *)

val pos_of : Location.t -> int * int
(** (line, column) of a location's start. *)

val expr_key : Parsetree.expression -> string
(** Stable printed form of an expression (via [Pprintast]); used to
    decide that two atomic operations touch the same atomic. *)

val iter_idents :
  ?fmod:(loc:Location.t -> string list -> unit) ->
  f:(coupled:bool -> loc:Location.t -> string list -> unit) ->
  Parsetree.structure ->
  unit
(** Visit every value identifier; [coupled] is true inside arguments of
    [coupled] applications (the paper's escape hatch:
    such code runs on the fiber's original KC, where blocking and
    thread-keyed syscalls are exactly what coupling is for).  [fmod]
    additionally receives module paths ([Pmod_ident]). *)

val defined_module_names : Parsetree.structure -> string list
(** Every module name the file binds itself, at any depth.  Lets rules
    keyed on a bare stdlib module path ([Mutex.lock]) stand down when
    the file shadows that module with its own definition. *)

type atomic_op =
  | Aget
  | Aset
  | Acas  (** compare_and_set, exchange *)
  | Afaa  (** fetch_and_add, incr, decr *)
  | Acmp
      (** a comparison ([<], [=], [compare], ...) with an operand that
          is an [Atomic.get] or a name bound to one in this frame *)

type aevent = {
  op : atomic_op;
  opname : string;
  key : string;
  line : int;
  col : int;
}

val iter_atomic_frames : analyze:(aevent list -> unit) -> Parsetree.structure -> unit
(** Call [analyze] once per function body (and once for module-level
    code) with that frame's [Atomic.*] operations in source order.
    Nested [fun]s open fresh frames.  A comparison's [Acmp] event comes
    after the [Aget]s inside its operands. *)
