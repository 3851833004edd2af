(* Fixture: a reasoned waiver at the call site suppresses the
   transitive finding for THIS caller (waiving the seam itself would
   clear every caller at once). *)

let pump fd buf =
  (* ulplint: allow transitive-blocking-in-fiber -- fixture: runs on the reactor thread, never on a worker domain *)
  Io_helper.copy_all fd buf
