(* Fixture: the same syscall coupled to the fiber's original KC is the
   sanctioned form and must NOT be flagged. *)

let coupled f = f ()
let me () = coupled (fun () -> Unix.getpid ())
