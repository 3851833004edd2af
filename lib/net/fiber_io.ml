(* Blocking-style I/O primitives for fibers on non-blocking fds: the
   paper's programming-model claim, delivered on real sockets.  Code
   reads like plain sequential Unix -- read / write / accept / connect
   -- and the would-block cases park only the calling fiber on the
   reactor, never a worker domain.

   Discipline: every fd is non-blocking; a syscall is attempted first
   (the fast path costs no reactor round-trip), and only EAGAIN /
   EINPROGRESS routes through [Reactor.await_edge], which costs no
   syscall once the fd is registered.  EINTR retries.  [wait] is the
   bare readiness wait: no EAGAIN before it, so it is [Reactor.await_fd]
   and re-arms the registration.  [?deadline]s are absolute wall-clock
   seconds; a lapsed deadline raises [Timeout].

   [close] is the one way to close an fd a fiber has waited on: it
   retires the fd's registration in every live reactor first, since
   the kernel drops it silently on close and reuses the number at
   once.

   Genuinely blocking calls with no non-blocking form (getaddrinfo)
   couple to the fiber's original KC via [Blt_rt.coupled] instead:
   same OS thread every time, the paper's system-call consistency. *)

module Fiber = Fiber_rt.Fiber
module Blt_rt = Fiber_rt.Blt_rt

exception Timeout

let set_nonblock fd = Unix.set_nonblock fd

let verdict = function `Ready -> () | `Timeout -> raise Timeout
let wait r ?deadline fd dir = verdict (Reactor.await_fd r ?deadline fd dir)

(* after EAGAIN or EINPROGRESS *)
let wait_edge r ?deadline fd dir =
  verdict (Reactor.await_edge r ?deadline fd dir)

let close fd =
  Reactor.forget fd;
  Unix.close fd

let rec read r ?deadline fd buf pos len =
  (* ulplint: allow blocking-in-fiber -- fd is O_NONBLOCK by contract; EAGAIN parks the fiber on the reactor instead of blocking *)
  match Unix.read fd buf pos len with
  | n -> n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      wait_edge r ?deadline fd `R;
      read r ?deadline fd buf pos len
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read r ?deadline fd buf pos len

let rec write_once r ?deadline fd buf pos len =
  (* ulplint: allow blocking-in-fiber -- fd is O_NONBLOCK by contract; EAGAIN parks the fiber on the reactor instead of blocking *)
  match Unix.write fd buf pos len with
  | n -> n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      wait_edge r ?deadline fd `W;
      write_once r ?deadline fd buf pos len
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      write_once r ?deadline fd buf pos len

let write_all r ?deadline fd buf pos len =
  let rec go pos len =
    if len > 0 then begin
      let n = write_once r ?deadline fd buf pos len in
      go (pos + n) (len - n)
    end
  in
  go pos len

let read_exact r ?deadline fd buf pos len =
  let rec go pos len =
    if len > 0 then
      match read r ?deadline fd buf pos len with
      | 0 -> raise End_of_file
      | n -> go (pos + n) (len - n)
  in
  go pos len

let rec accept r ?deadline fd =
  match Unix.accept ~cloexec:true fd with
  | conn, peer ->
      Unix.set_nonblock conn;
      (conn, peer)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      wait_edge r ?deadline fd `R;
      accept r ?deadline fd
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      accept r ?deadline fd

let connect r ?deadline fd addr =
  match Unix.connect fd addr with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
    -> (
      (* non-blocking connect: writable when resolved; the verdict is
         in SO_ERROR *)
      wait_edge r ?deadline fd `W;
      match Unix.getsockopt_error fd with
      | None -> ()
      | Some err -> raise (Unix.Unix_error (err, "connect", "")))
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      (* the kernel continues the connect; wait it out like EINPROGRESS *)
      wait_edge r ?deadline fd `W;
      (match Unix.getsockopt_error fd with
      | None -> ()
      | Some err -> raise (Unix.Unix_error (err, "connect", "")))

let resolve ?(service = "") host =
  Blt_rt.coupled (fun () ->
      List.filter_map
        (fun (ai : Unix.addr_info) ->
          match ai.Unix.ai_addr with Unix.ADDR_INET _ as a -> Some a | _ -> None)
        (Unix.getaddrinfo host service [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]))
