(* Fixture: blocking-in-fiber must flag every direct blocking call. *)

let slurp fd buf =
  let n = Unix.read fd buf 0 (Bytes.length buf) in
  Thread.delay 0.01;
  let _ = Unix.select [ fd ] [] [] 1.0 in
  let t = Unix.gettimeofday () in
  ignore t;
  n

(* an OS-thread sleep, not a fiber park *)
let idle p = Fiber_rt.Parker.park p
