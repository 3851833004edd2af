(* Fixture: blocking calls inside coupled arguments are the paper's
   escape hatch and must NOT be flagged. *)

let coupled f = f ()

let slurp fd buf = coupled (fun () -> Unix.read fd buf 0 (Bytes.length buf))
let nap () = coupled (fun () -> Thread.delay 0.01)
