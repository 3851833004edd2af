(* fixture interface: keeps mli-coverage quiet for this file *)
val coupled : (unit -> 'a) -> 'a
val slurp : Unix.file_descr -> Bytes.t -> int
val nap : unit -> unit
