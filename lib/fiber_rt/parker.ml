(* A one-permit parker for OS threads, and each thread's owed wake
   (parker_stubs.c).  See parker.mli for the wake-after-release rule. *)

type t

external create : unit -> t = "ulp_parker_create"
external unpark : t -> unit = "ulp_parker_unpark" [@@noalloc]
external park : t -> unit = "ulp_parker_park"
external set_deferring : bool -> unit = "ulp_parker_set_deferring" [@@noalloc]
external flush : unit -> unit = "ulp_parker_flush" [@@noalloc]

let deferring f =
  set_deferring true;
  match f () with
  | v ->
      set_deferring false;
      v
  | exception e ->
      set_deferring false;
      raise e
