(* Multi-tenant TCP serving: one user-level process per connection.

   The serving stack below Tcp_server is shared -- the reactor
   thread, the accept loop, worker domains -- but each accepted
   connection is served inside its OWN ULP (lib/proc): the handler
   detaches the socket from the server, spawns a child ULP that adopts
   it into its private descriptor table, and waitpid-reaps the child
   when the conversation ends.  What that buys over a bare handler fiber:

   - isolation: the tenant's descriptors live in the ULP's table; when
     the ULP exits -- normally, by Proc.exit, or killed -- the exit
     sweep releases them exactly once, whatever fibers it grew;
   - identity: the vpid names the tenant, and its exit status reports
     what it did -- each tenant exits with its request count, which
     the reaping handler collects from waitpid (plain exit/wait: no
     server-side tenant table);
   - control: Proc.kill on the vpid cancels that connection's whole
     fiber tree without touching its neighbours.

   The clients are ULPs too: socket, connect, request loop -- every
   descriptor through the private table, no raw fd calls anywhere
   (the raw-fd-in-proc lint rule holds this file to that).

   The example checks its own answer and exits 1 when a handler
   failed, the tenant count is not [clients], the per-tenant counts do
   not add up to every request sent, or a ULP outlives the run.

   Run with:  dune exec examples/multi_tenant.exe *)

module Fiber = Fiber_rt.Fiber
module Sync = Fiber_rt.Sync
module Reactor = Net.Reactor
module Tcp = Net.Tcp_server

let clients = 6
let reqs_per_client = 5
let msg_bytes = 32

(* Per-connection ULP: adopt the socket, then echo request lines until
   the peer closes, and exit with the number of requests served. *)
let serve_tenant r u vfd =
  let buf = Bytes.create msg_bytes in
  let rec loop served =
    Proc.check u;
    (* cancellation point: a killed tenant stops here *)
    match Proc.Io.read r u vfd buf 0 msg_bytes with
    | 0 -> served (* peer closed; the exit sweep releases vfd *)
    | n ->
        Proc.Io.write_all r u vfd buf 0 n;
        loop (served + 1)
  in
  Proc.exit u (loop 0)

(* (vpid, requests served) of every reaped tenant ULP. *)
let loads = ref []
let loads_lock = Sync.Mutex.create ()

let handler root r (c : Tcp.conn) =
  (* ownership moves to the tenant ULP's table before anything can
     fail: from here the server will not close the fd *)
  Tcp.detach c;
  let child =
    Proc.spawn ~parent:root (fun u ->
        let vfd = Proc.Io.adopt u c.Tcp.fd in
        serve_tenant r u vfd)
  in
  (* the handler fiber doubles as the reaper, so Tcp_server's active
     count retires exactly when the tenant ULP is gone; a tenant that
     did not exit normally fails the handler *)
  let vpid = Proc.getpid child in
  match Proc.waitpid ~parent:root ~vpid with
  | Ok (Proc.Exited served) ->
      Sync.Mutex.with_lock loads_lock (fun () ->
          loads := (vpid, served) :: !loads)
  | Ok (Proc.Signaled signum) ->
      failwith (Printf.sprintf "tenant %d killed by signal %d" vpid signum)
  | Error `Echild -> failwith (Printf.sprintf "tenant %d not reaped" vpid)

(* Client ULP: one connection, [reqs_per_client] round trips, every
   descriptor through its own private table. *)
let client root r port i =
  Proc.spawn ~parent:root (fun u ->
      let vfd = Proc.Io.socket u Unix.PF_INET Unix.SOCK_STREAM 0 in
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      Proc.Io.connect r u vfd addr;
      let buf = Bytes.create msg_bytes in
      for req = 1 to reqs_per_client do
        let line = Printf.sprintf "tenant %d request %d" i req in
        Bytes.fill buf 0 msg_bytes ' ';
        Bytes.blit_string line 0 buf 0 (String.length line);
        Proc.Io.write_all r u vfd buf 0 msg_bytes;
        Proc.Io.read_exact r u vfd buf 0 msg_bytes
      done;
      Proc.Io.close u vfd)

let () =
  let r = Reactor.create () in
  let w = Proc.boot () in
  let errors = ref [] in
  Fiber.run_parallel ~domains:2 (fun () ->
      let root = Proc.root w in
      let srv =
        Tcp.start ~reactor:r
          ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
          ~handler:(handler root) ()
      in
      let port = Tcp.port srv in
      let kids = List.init clients (fun i -> client root r port (i + 1)) in
      List.iter
        (fun c -> ignore (Proc.waitpid ~parent:root ~vpid:(Proc.getpid c)))
        kids;
      (* stop drains every handler, so every tenant is reaped and
         recorded before the checks below *)
      Tcp.stop srv;
      let st = Tcp.stats srv in
      let loads = List.sort compare !loads in
      let tenants = List.length loads in
      Printf.printf
        "served %d connections as %d tenant ULPs (%d completed, %d failed)\n"
        st.Tcp.accepted tenants st.Tcp.completed st.Tcp.failed;
      List.iter
        (fun (vpid, reqs) ->
          Printf.printf "  tenant vpid %3d: %d requests\n" vpid reqs)
        loads;
      let population = Proc.live_procs w in
      Printf.printf "world population back to %d (root only)\n" population;
      let served = List.fold_left (fun acc (_, n) -> acc + n) 0 loads in
      let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
      let expected = clients * reqs_per_client in
      if st.Tcp.failed > 0 then fail "%d handlers failed" st.Tcp.failed;
      if tenants <> clients then
        fail "%d tenant ULPs, expected %d" tenants clients;
      if served <> expected then
        fail "%d requests served, expected %d" served expected;
      if population <> 1 then fail "%d ULPs alive at the end" population);
  Reactor.shutdown r;
  List.iter (Printf.eprintf "multi_tenant: FAIL: %s\n") (List.rev !errors);
  if !errors <> [] then exit 1
