(* The reactor's kernel poller: one epoll instance, every registration
   edge-triggered (the C stub sets EPOLLET).  An fd is registered once
   and the kernel reports each rise of its readiness once; [wait] costs
   O(ready), not O(registered).  What a report means to the fibers
   parked on the fd -- and what happens to an edge nobody was parked
   for -- is [Interest]'s business; this module only speaks to the
   kernel.  [add], [modify] and [remove] are epoll_ctl, which is
   thread-safe, so a fiber registers its fd from its own worker while
   another worker waits in [wait]. *)

type event = { fd : Unix.file_descr; readable : bool; writable : bool }

external raise_nofile_stub : int -> int = "ulp_net_raise_nofile"
external epoll_create_stub : unit -> int = "ulp_net_epoll_create"

(* epfd op fd bits; op 0=ADD 1=MOD 2=DEL.  It neither allocates nor
   raises. *)
external epoll_ctl_stub : int -> int -> int -> int -> bool = "ulp_net_epoll_ctl"
  [@@noalloc]

(* epfd out_fds out_revents maxevents timeout_ms -> n ready (-1 EINTR) *)
external epoll_wait_stub :
  int -> int array -> int array -> int -> int -> int = "ulp_net_epoll_wait"

(* Unix.file_descr is the raw fd int on Unix systems. *)
external fd_int : Unix.file_descr -> int = "%identity"
external fd_of_int : int -> Unix.file_descr = "%identity"

let ev_in = 1
let ev_out = 2
let ev_err = 4

let raise_nofile want = raise_nofile_stub want

type t = {
  epfd : int;
  mutable fds : int array; (* wait output scratch, grown on saturation *)
  mutable revents : int array;
  mutable closed : bool;
}

let create () =
  {
    epfd = epoll_create_stub ();
    fds = Array.make 256 0;
    revents = Array.make 256 0;
    closed = false;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close (fd_of_int t.epfd) with Unix.Unix_error _ -> ()
  end

let bits ~write = if write then ev_in lor ev_out else ev_in
let add t fd ~write = epoll_ctl_stub t.epfd 0 (fd_int fd) (bits ~write)
let modify t fd ~write = epoll_ctl_stub t.epfd 1 (fd_int fd) (bits ~write)
let remove t fd = ignore (epoll_ctl_stub t.epfd 2 (fd_int fd) 0)

let wait t ~timeout_ms =
  let cap = Array.length t.fds in
  (* ulplint: allow blocking-in-fiber -- the poller IS the blocking point: only a parked worker holding the reactor's turn waits here, never a fiber *)
  match epoll_wait_stub t.epfd t.fds t.revents cap (max timeout_ms (-1)) with
  | -1 (* EINTR *) -> []
  | n ->
      (* built back to front, so the list keeps the kernel's order: the
         fd that became ready first is woken first *)
      let acc = ref [] in
      for i = n - 1 downto 0 do
        let rev = t.revents.(i) in
        (* error/hang-up counts as both-ready: the waiter's next syscall
           surfaces the actual errno *)
        acc :=
          {
            fd = fd_of_int t.fds.(i);
            readable = rev land (ev_in lor ev_err) <> 0;
            writable = rev land (ev_out lor ev_err) <> 0;
          }
          :: !acc
      done;
      (* saturated output: give the next round more room (events left
         behind stay on the kernel's ready list for the next round) *)
      if n = cap then begin
        t.fds <- Array.make (2 * cap) 0;
        t.revents <- Array.make (2 * cap) 0
      end;
      !acc
