(* Small workload utilities. *)

(* A spin barrier for decoupled ULPs sharing a scheduler: arrive, then
   yield until everyone has.  Progress is guaranteed because every yield
   burns scheduler dispatch time. *)
let barrier sys ~parties counter =
  incr counter;
  while !counter < parties do
    Core.Ulp.yield sys
  done
