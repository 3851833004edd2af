(* fixture interface: keeps mli-coverage quiet for this file *)
val coupled : (unit -> 'a) -> 'a
val me : unit -> int
