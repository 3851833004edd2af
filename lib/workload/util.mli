(** Small workload utilities. *)

val barrier : Core.Ulp.t -> parties:int -> int ref -> unit
(** Spin barrier for decoupled ULPs sharing a scheduler: arrive, then
    yield until everyone has. *)
