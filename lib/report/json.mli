(** A minimal JSON reader and printer for the bench harness and
    ulplint: enough to write and re-read the BENCH_*.json and LINT.json
    files (and validate them in CI) without pulling in a JSON
    dependency.  Full number/string/escape support; not a streaming
    parser — fine at bench-report scale. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Carries a byte offset and a short description. *)

val parse : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

val parse_file : string -> (t, string) result
(** [Error] covers both I/O failures and parse errors. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_float : t -> float option
val to_string : t -> string option
val to_list : t -> t list option

val print : t -> string
(** Pretty JSON text, newline-terminated.  A top-level object puts one
    member per line, and a member holding a list of objects puts one
    object per line; everything else is inline, [{"k": v, ...}].
    Integral numbers print without a fraction; other numbers print in
    the fewest digits that {!parse} reads back exactly.
    @raise Invalid_argument on a NaN or infinite number. *)

val write_file : string -> t -> unit
(** [write_file path v] writes [print v] to [path]. *)
