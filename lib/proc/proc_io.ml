(* I/O through a ULP's private descriptor table: the Proc twin of
   Fiber_io.  Every operation names a VIRTUAL descriptor (a slot of the
   calling ULP's Fd_core table) and resolves it to the host fd at call
   time; the syscall itself is Fiber_io's try-then-park on the reactor,
   so Section IV consistency is inherited -- the await is registered
   with the reactor, whose turn some idle worker holds, the wake routed
   back to the calling worker, and only the fiber ever parks.

   The resolve protocol takes a reference for the duration of the call
   ([with_fd]: get -> retain -> op -> release), so a concurrent close
   from another fiber of the ULP -- or from a sharing ULP -- cannot
   destroy the host fd mid-syscall; the close simply defers to the last
   release.  A descriptor that is already dead resolves to EBADF, never
   to somebody else's recycled fd.

   This file is the ONE authorized home of raw host-fd lifecycle calls
   in lib/proc (creation here, destruction in the table's destroy
   callback); everywhere else the ulplint rule [raw-fd-in-proc] flags
   them.  Each site below carries its waiver. *)

module Fiber_io = Net.Fiber_io

let ebadf name = raise (Unix.Unix_error (Unix.EBADF, name, ""))
let emfile name = raise (Unix.Unix_error (Unix.EMFILE, name, ""))
let esrch name = raise (Unix.Unix_error (Unix.ESRCH, name, ""))

(* The destroy callback of every handle: the single authorized close
   site.  Errors are swallowed -- the kernel releases the descriptor
   even when close(2) reports e.g. a deferred NFS error, and the table
   must not raise from another descriptor's release path. *)
let host_close fd =
  (* ulplint: allow raw-fd-in-proc -- the fd table's destroy callback: the one place a host fd is closed, exactly once per handle *)
  try Unix.close fd with Unix.Unix_error _ -> ()

let handle fd = Fd_core.resource ~destroy:host_close fd

(* Bind the reference [r] into [u]'s table, or release it: EMFILE on a
   full table, ESRCH once [u] has exited (its table is shut). *)
let bind name u r =
  let t = Process.fds u in
  match Fd_core.alloc t r with
  | Some vfd -> vfd
  | None ->
      Fd_core.release r;
      if Fd_core.is_shut t then esrch name else emfile name

(* Import a host fd the caller owns into [u]'s table; the table takes
   ownership (on failure the fd is closed -- it must not leak). *)
let adopt ?(nonblock = true) u fd =
  if nonblock then Fiber_io.set_nonblock fd;
  bind "adopt" u (handle fd)

let openfile u path flags perm =
  (* ulplint: allow raw-fd-in-proc -- the table's openfile entry point itself: the fd goes straight into a slot *)
  let fd = Unix.openfile path flags perm in
  adopt ~nonblock:false u fd

let socket u dom ty proto =
  (* ulplint: allow raw-fd-in-proc -- the table's socket entry point itself: the fd goes straight into a slot *)
  let fd = Unix.socket ~cloexec:true dom ty proto in
  adopt u fd

let pipe u =
  (* ulplint: allow raw-fd-in-proc -- the table's pipe entry point itself: both ends go straight into slots *)
  let rd, wr = Unix.pipe ~cloexec:true () in
  let vrd =
    try adopt u rd
    with e ->
      host_close wr;
      raise e
  in
  let vwr =
    try adopt u wr
    with e ->
      ignore (Fd_core.close (Process.fds u) vrd);
      raise e
  in
  (vrd, vwr)

let close u vfd = if not (Fd_core.close (Process.fds u) vfd) then ebadf "close"

let dup u vfd =
  match Fd_core.dup (Process.fds u) vfd with
  | Ok n -> n
  | Error `Badf -> ebadf "dup"
  | Error `Mfile -> emfile "dup"

let dup2 u ~src ~dst =
  match Fd_core.dup2 (Process.fds u) ~src ~dst with
  | Ok () -> ()
  | Error `Badf -> ebadf "dup2"

(* Share [src_vfd] with another ULP: one more reference on the SAME
   host fd, bound into [into]'s namespace -- the refcount is what makes
   both ULPs' eventual closes safe. *)
let share u src_vfd ~into =
  match Fd_core.get (Process.fds u) src_vfd with
  | None -> ebadf "share"
  | Some r -> if Fd_core.retain r then bind "share" into r else ebadf "share"

(* Resolve for the duration of one operation: the retained reference
   pins the host fd across the (possibly parking) syscall. *)
let with_fd u vfd ~name f =
  match Fd_core.get (Process.fds u) vfd with
  | None -> ebadf name
  | Some r ->
      if not (Fd_core.retain r) then ebadf name
      else
        Fun.protect
          ~finally:(fun () -> Fd_core.release r)
          (fun () -> f (Fd_core.value r))

let read reactor u ?deadline vfd buf pos len =
  with_fd u vfd ~name:"read" (fun fd ->
      Fiber_io.read reactor ?deadline fd buf pos len)

let read_exact reactor u ?deadline vfd buf pos len =
  with_fd u vfd ~name:"read" (fun fd ->
      Fiber_io.read_exact reactor ?deadline fd buf pos len)

let write_once reactor u ?deadline vfd buf pos len =
  with_fd u vfd ~name:"write" (fun fd ->
      Fiber_io.write_once reactor ?deadline fd buf pos len)

let write_all reactor u ?deadline vfd buf pos len =
  with_fd u vfd ~name:"write" (fun fd ->
      Fiber_io.write_all reactor ?deadline fd buf pos len)

let accept reactor u ?deadline vfd =
  let conn, peer =
    with_fd u vfd ~name:"accept" (fun fd -> Fiber_io.accept reactor ?deadline fd)
  in
  (* already non-blocking + cloexec, straight into a slot *)
  (adopt ~nonblock:false u conn, peer)

let connect reactor u ?deadline vfd addr =
  with_fd u vfd ~name:"connect" (fun fd ->
      Fiber_io.connect reactor ?deadline fd addr)

let wait reactor u ?deadline vfd dir =
  with_fd u vfd ~name:"wait" (fun fd -> Fiber_io.wait reactor ?deadline fd dir)
