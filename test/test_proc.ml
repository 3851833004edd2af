(* Tier-1 tests for lib/proc: private fd tables (POSIX slot order, dup2
   displacement, refcounted sharing, the exit-time sweep and no share
   or adopt into an exited ULP), virtual PIDs
   and wait semantics (WNOHANG polling, fiber-parking waitpid, zombie
   reaping, orphan re-parenting to the root, no spawn under an exited
   parent), signal delivery (default dispositions, handlers at check
   points, uncatchable SIGKILL), the fd-leak gate across 1000
   spawn/exit cycles, a minor-words gate on an empty spawn + waitpid,
   and multi-domain stresses under TEST_SEED, each on as many domains as
   the host has cores and on one more: spawn/kill/wait, fd-table
   growth, and a three-level tree whose parents' exits race their
   children's.  The concurrent interleavings of the underlying Fd_core
   are model-checked in test_check; the process tree, which changes
   only under its world's lock, is checked against a POSIX model in
   test_model. *)

module Fiber = Fiber_rt.Fiber
module Reactor = Net.Reactor
module Fd = Proc.Fd_core

(* Each multi-domain case runs on as many domains as the host has
   cores, then on one more, so every host runs both the parallel and
   the oversubscribed schedule (a pinned host runs 1 and 2).  The bound
   keeps a many-core host's run small.  No case here tests placement,
   so none is fixed at two workers. *)
let stress_domains =
  let n = min 32 (Domain.recommended_domain_count ()) in
  [ n; n + 1 ]

(* [f] once per count in [stress_domains].  The count is printed first,
   so a failure's log names the run that failed. *)
let on_stress_domains f =
  List.iter
    (fun domains ->
      Printf.printf "at %d domains\n%!" domains;
      Fiber.run_parallel ~domains f)
    stress_domains

let with_reactor f =
  let r = Reactor.create () in
  Fun.protect ~finally:(fun () -> Reactor.shutdown r) (fun () -> f r)

let count_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

(* Bounded spin so a lost wakeup fails the test instead of hanging CI. *)
let spin_until ?(tries = 100_000) msg cond =
  let rec go n =
    if cond () then ()
    else if n = 0 then Alcotest.failf "timed out waiting for %s" msg
    else begin
      Fiber.yield ();
      go (n - 1)
    end
  in
  go tries

let status = Alcotest.testable (fun ppf -> function
    | Proc.Exited n -> Format.fprintf ppf "Exited %d" n
    | Proc.Signaled s -> Format.fprintf ppf "Signaled %d" s)
    ( = )

let wait_ok ~parent ~vpid =
  match Proc.waitpid ~parent ~vpid with
  | Ok st -> st
  | Error `Echild -> Alcotest.failf "waitpid %d: ECHILD" vpid

(* ---------- fd table: POSIX slot order and dup2 semantics ---------- *)

let test_fd_lowest_slot () =
  let t = Fd.create ~capacity:4 in
  let mk () = Fd.resource ~destroy:(fun _ -> ()) 0 in
  Alcotest.(check (option int)) "first alloc" (Some 0) (Fd.alloc t (mk ()));
  Alcotest.(check (option int)) "second alloc" (Some 1) (Fd.alloc t (mk ()));
  Alcotest.(check (option int)) "third alloc" (Some 2) (Fd.alloc t (mk ()));
  Alcotest.(check bool) "close middle" true (Fd.close t 1);
  Alcotest.(check (option int)) "freed slot is reused first" (Some 1)
    (Fd.alloc t (mk ()));
  Alcotest.(check (option int)) "then the next free one" (Some 3)
    (Fd.alloc t (mk ()));
  Alcotest.(check (option int)) "table full" None (Fd.alloc t (mk ()));
  Alcotest.(check int) "count" 4 (Fd.count t)

let test_fd_dup2_closes_target_once () =
  let da = ref 0 and db = ref 0 in
  let t = Fd.create ~capacity:4 in
  let a = Fd.resource ~destroy:(fun _ -> incr da) 'a' in
  let b = Fd.resource ~destroy:(fun _ -> incr db) 'b' in
  ignore (Fd.alloc t a);
  ignore (Fd.alloc t b);
  (match Fd.dup2 t ~src:0 ~dst:1 with
  | Ok () -> ()
  | Error `Badf -> Alcotest.fail "dup2 EBADF");
  Alcotest.(check int) "displaced target destroyed exactly once" 1 !db;
  Alcotest.(check int) "source alive with both names" 2 (Fd.refs a);
  (* dup2 onto itself: POSIX no-op that succeeds *)
  (match Fd.dup2 t ~src:0 ~dst:0 with
  | Ok () -> ()
  | Error `Badf -> Alcotest.fail "dup2 self EBADF");
  Alcotest.(check int) "self dup2 takes no reference" 2 (Fd.refs a);
  (* dup2 from a closed slot is EBADF *)
  ignore (Fd.close t 0);
  ignore (Fd.close t 1);
  Alcotest.(check bool) "dup2 from empty slot is EBADF" true
    (Fd.dup2 t ~src:0 ~dst:1 = Error `Badf);
  Alcotest.(check int) "source destroyed exactly once at the end" 1 !da;
  Alcotest.(check int) "no double destroy of the target" 1 !db

let test_fd_close_all_concurrent_sharers () =
  (* two ULP tables naming the same host resource, both torn down
     concurrently (the do_exit close_all race): every iteration must
     destroy the resource exactly once *)
  on_stress_domains (fun () ->
      for _ = 1 to 200 do
        let destroyed = Atomic.make 0 in
        let r =
          Fd.resource ~destroy:(fun _ -> Atomic.incr destroyed) 0
        in
        let t1 = Fd.create ~capacity:4 and t2 = Fd.create ~capacity:4 in
        ignore (Fd.alloc t1 r);
        assert (Fd.retain r);
        ignore (Fd.alloc t2 r);
        let f1 = Fiber.spawn (fun () -> ignore (Fd.close_all t1)) in
        let f2 = Fiber.spawn (fun () -> ignore (Fd.close_all t2)) in
        Fiber.join f1;
        Fiber.join f2;
        if Atomic.get destroyed <> 1 then
          Alcotest.failf "shared fd destroyed %d times"
            (Atomic.get destroyed);
        if Fd.refs r <> 0 then
          Alcotest.failf "%d refs left after both close_all" (Fd.refs r)
      done)

(* ---------- fd table through Proc.Io on real host fds ---------- *)

let test_io_lowest_slot_posix () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u = Proc.root w in
      let o () = Proc.Io.openfile u "/dev/null" [ Unix.O_WRONLY ] 0 in
      Alcotest.(check int) "vfd 0" 0 (o ());
      Alcotest.(check int) "vfd 1" 1 (o ());
      Alcotest.(check int) "vfd 2" 2 (o ());
      Proc.Io.close u 1;
      Alcotest.(check int) "lowest freed vfd reused" 1 (o ());
      let d = Proc.Io.dup u 0 in
      Alcotest.(check int) "dup takes the next free slot" 3 d;
      Alcotest.(check bool) "closing a bad vfd is EBADF" true
        (match Proc.Io.close u 9 with
        | () -> false
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> true);
      List.iter (fun v -> Proc.Io.close u v) [ 0; 1; 2; 3 ])

let test_io_dup2_no_host_leak () =
  match count_fds () with
  | None -> ()
  | Some baseline ->
      on_stress_domains (fun () ->
          let w = Proc.boot () in
          let u = Proc.root w in
          let a = Proc.Io.openfile u "/dev/null" [ Unix.O_WRONLY ] 0 in
          let b = Proc.Io.openfile u "/dev/null" [ Unix.O_WRONLY ] 0 in
          (* displaces b's host fd: it must be closed NOW, not leaked *)
          Proc.Io.dup2 u ~src:a ~dst:b;
          Proc.Io.close u a;
          Proc.Io.close u b);
      let after = match count_fds () with Some n -> n | None -> baseline in
      Alcotest.(check int) "dup2 closed the displaced host fd" baseline after

let test_io_share_pipe_across_ulps () =
  with_reactor (fun r ->
      on_stress_domains (fun () ->
          let w = Proc.boot () in
          let u0 = Proc.root w in
          let rd, wr = Proc.Io.pipe u0 in
          let child =
            Proc.spawn ~parent:u0 (fun u ->
                (* bind the parent's write end into OUR namespace: same
                   host fd, refcount 2 *)
                let cwr = Proc.Io.share u0 wr ~into:u in
                Proc.Io.write_all r u cwr (Bytes.of_string "hi") 0 2;
                Proc.Io.close u cwr)
          in
          Alcotest.(check status) "writer exited cleanly" (Proc.Exited 0)
            (wait_ok ~parent:u0 ~vpid:(Proc.getpid child));
          (* our name for the write end is still valid: the child's
             close dropped ITS reference, not the host fd *)
          Proc.Io.close u0 wr;
          let buf = Bytes.create 2 in
          Proc.Io.read_exact r u0 ~deadline:(Unix.gettimeofday () +. 5.) rd
            buf 0 2;
          Alcotest.(check string) "bytes crossed the ULP boundary" "hi"
            (Bytes.to_string buf);
          Proc.Io.close u0 rd))

let test_io_fd_leak_gate_1000_spawns () =
  (* the test_net fd-hygiene gate, extended to ULP exit: 1000 ULPs each
     open a file and a pipe and exit WITHOUT closing -- do_exit's
     close_all must return the host fds, every time *)
  match count_fds () with
  | None -> ()
  | Some baseline ->
      on_stress_domains (fun () ->
          let w = Proc.boot () in
          let u0 = Proc.root w in
          for _batch = 1 to 20 do
            let kids =
              List.init 50 (fun _ ->
                  Proc.spawn ~parent:u0 (fun u ->
                      let _f =
                        Proc.Io.openfile u "/dev/null" [ Unix.O_WRONLY ] 0
                      in
                      let _p = Proc.Io.pipe u in
                      (* leak on purpose: exit cleans the table *)
                      ()))
            in
            List.iter
              (fun c ->
                Alcotest.(check status) "leaker exited" (Proc.Exited 0)
                  (wait_ok ~parent:u0 ~vpid:(Proc.getpid c)))
              kids
          done;
          Alcotest.(check int) "only the root survives" 1 (Proc.live_procs w));
      let after = match count_fds () with Some n -> n | None -> baseline in
      Alcotest.(check int) "fd count back to baseline after 1000 ULPs"
        baseline after

(* An exited ULP that is not reaped yet keeps its place in the tree,
   but its fd table is shut: a share or an adopt into it fails with
   ESRCH and drops the reference it would have bound.  Bound into the
   dead table instead, the reference was never released, and the
   host fd outlived every holder's close. *)
let test_io_no_bind_into_exited () =
  match count_fds () with
  | None -> ()
  | Some baseline ->
      on_stress_domains (fun () ->
          let w = Proc.boot () in
          let u0 = Proc.root w in
          let rd, wr = Proc.Io.pipe u0 in
          let child = Proc.spawn ~parent:u0 (fun _ -> ()) in
          spin_until "the child's exit" (fun () -> Proc.status_of child <> None);
          let esrch what f =
            match f () with
            | _ -> Alcotest.failf "%s into an exited ULP succeeded" what
            | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ()
          in
          esrch "share" (fun () -> Proc.Io.share u0 wr ~into:child);
          let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
          esrch "adopt" (fun () -> Proc.Io.adopt ~nonblock:false child fd);
          Alcotest.(check status) "the zombie's status" (Proc.Exited 0)
            (wait_ok ~parent:u0 ~vpid:(Proc.getpid child));
          Proc.Io.close u0 rd;
          Proc.Io.close u0 wr);
      let after = match count_fds () with Some n -> n | None -> baseline in
      Alcotest.(check int) "host fds back to baseline" baseline after

(* ---------- vpids, exit codes, wait semantics ---------- *)

let test_spawn_exit_codes () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      Alcotest.(check int) "root is vpid 1" 1 (Proc.getpid u0);
      Alcotest.(check int) "root's parent is 0" 0 (Proc.getppid u0);
      let normal = Proc.spawn ~parent:u0 (fun _ -> ()) in
      let coded = Proc.spawn ~parent:u0 (fun u -> Proc.exit u 3) in
      let crashed = Proc.spawn ~parent:u0 (fun _ -> failwith "boom") in
      Alcotest.(check int) "child knows its parent" 1 (Proc.getppid coded);
      Alcotest.(check status) "plain return is Exited 0" (Proc.Exited 0)
        (wait_ok ~parent:u0 ~vpid:(Proc.getpid normal));
      Alcotest.(check status) "exit code carried" (Proc.Exited 3)
        (wait_ok ~parent:u0 ~vpid:(Proc.getpid coded));
      Alcotest.(check status) "uncaught exception is Exited 125"
        (Proc.Exited 125)
        (wait_ok ~parent:u0 ~vpid:(Proc.getpid crashed));
      Alcotest.(check int) "all reaped" 1 (Proc.live_procs w))

let test_try_waitpid_wnohang () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let gate = Atomic.make false in
      let c =
        Proc.spawn ~parent:u0 (fun u ->
            while not (Atomic.get gate) do
              Proc.check u;
              Fiber.yield ()
            done;
            Proc.exit u 7)
      in
      let vpid = Proc.getpid c in
      Alcotest.(check bool) "WNOHANG on a running child is Ok None" true
        (Proc.try_waitpid ~parent:u0 ~vpid = Ok None);
      Atomic.set gate true;
      (* the blocking variant parks THIS fiber until the exit *)
      Alcotest.(check status) "waitpid woke with the status" (Proc.Exited 7)
        (wait_ok ~parent:u0 ~vpid);
      Alcotest.(check bool) "reaped: second wait is ECHILD" true
        (Proc.waitpid ~parent:u0 ~vpid = Error `Echild);
      Alcotest.(check bool) "waiting a stranger is ECHILD" true
        (Proc.waitpid ~parent:u0 ~vpid:999 = Error `Echild))

let test_zombie_holds_status_until_reaped () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let c = Proc.spawn ~parent:u0 (fun u -> Proc.exit u 42) in
      let vpid = Proc.getpid c in
      spin_until "child exit" (fun () -> Proc.status_of c <> None);
      (* dead but unreaped: still in the table, status readable *)
      Alcotest.(check int) "zombie still occupies the table" 2
        (Proc.live_procs w);
      Alcotest.(check bool) "status readable on the zombie" true
        (Proc.status_of c = Some (Proc.Exited 42));
      Alcotest.(check bool) "still listed among children" true
        (List.mem vpid (Proc.children u0));
      Alcotest.(check status) "reap" (Proc.Exited 42) (wait_ok ~parent:u0 ~vpid);
      Alcotest.(check int) "table dropped the zombie" 1 (Proc.live_procs w);
      Alcotest.(check bool) "no longer a child" true
        (not (List.mem vpid (Proc.children u0))))

let test_orphan_reparents_to_root () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let gate = Atomic.make false in
      let leaf_box = Atomic.make None in
      let mid =
        Proc.spawn ~parent:u0 (fun u_mid ->
            let leaf =
              Proc.spawn ~parent:u_mid (fun u_leaf ->
                  while not (Atomic.get gate) do
                    Proc.check u_leaf;
                    Fiber.yield ()
                  done)
            in
            Atomic.set leaf_box (Some leaf))
      in
      Alcotest.(check status) "middle exits first" (Proc.Exited 0)
        (wait_ok ~parent:u0 ~vpid:(Proc.getpid mid));
      let leaf =
        match Atomic.get leaf_box with
        | Some l -> l
        | None -> Alcotest.fail "leaf never spawned"
      in
      (* do_exit re-parented the live grandchild to init before
         publishing mid's status, so by now the links are rewritten *)
      Alcotest.(check int) "orphan's ppid is the root" 1 (Proc.getppid leaf);
      Alcotest.(check bool) "root inherited the orphan" true
        (List.mem (Proc.getpid leaf) (Proc.children u0));
      Atomic.set gate true;
      (* adopted orphans self-reap: no waitpid, the table must drain *)
      spin_until "orphan self-reap" (fun () -> Proc.live_procs w = 1);
      Alcotest.(check bool) "orphan exited cleanly" true
        (Proc.status_of leaf = Some (Proc.Exited 0)))

(* The root parks in waitpid on an orphan it adopted; the orphan then
   exits.  The parked waiter gets the exit status: the orphan does not
   reap itself while a waiter is parked on it.  One worker, so the
   order below is the only order. *)
let test_parked_root_reaps_adopted () =
  Fiber.run (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let gate = Atomic.make false in
      let leaf_box = Atomic.make None in
      let mid =
        Proc.spawn ~parent:u0 (fun u_mid ->
            let leaf =
              Proc.spawn ~parent:u_mid (fun u_leaf ->
                  while not (Atomic.get gate) do
                    Proc.check u_leaf;
                    Fiber.yield ()
                  done;
                  Proc.exit u_leaf 7)
            in
            Atomic.set leaf_box (Some leaf))
      in
      ignore (wait_ok ~parent:u0 ~vpid:(Proc.getpid mid));
      let leaf = Option.get (Atomic.get leaf_box) in
      Alcotest.(check int) "orphan's ppid is the root" 1 (Proc.getppid leaf);
      let got = ref None in
      let waiter =
        Fiber.spawn (fun () ->
            got := Some (Proc.waitpid ~parent:u0 ~vpid:(Proc.getpid leaf)))
      in
      spin_until "root parked in waitpid" (fun () ->
          Fiber.state waiter = `Suspended);
      Atomic.set gate true;
      Fiber.join waiter;
      (match !got with
      | Some (Ok st) -> Alcotest.(check status) "waiter gets the status" (Proc.Exited 7) st
      | Some (Error `Echild) -> Alcotest.fail "parked waiter got ECHILD"
      | None -> Alcotest.fail "waiter never returned");
      Alcotest.(check int) "reaped once, table drained" 1 (Proc.live_procs w))

(* An exited but unreaped parent still holds its old children list;
   the live children it handed to the root answer to the root now, so
   they are listed there, once, and no longer under the zombie. *)
let test_zombie_lists_no_orphans () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let gate = Atomic.make false in
      let leaf_box = Atomic.make None in
      let mid =
        Proc.spawn ~parent:u0 (fun u_mid ->
            let leaf =
              Proc.spawn ~parent:u_mid (fun u_leaf ->
                  while not (Atomic.get gate) do
                    Proc.check u_leaf;
                    Fiber.yield ()
                  done)
            in
            Atomic.set leaf_box (Some (Proc.getpid leaf)))
      in
      spin_until "mid exit" (fun () -> Proc.status_of mid <> None);
      let leaf = Option.get (Atomic.get leaf_box) in
      Alcotest.(check (list int)) "the zombie lists no children" []
        (Proc.children mid);
      Alcotest.(check int) "the root lists the orphan once" 1
        (List.length (List.filter (( = ) leaf) (Proc.children u0)));
      Alcotest.(check bool) "the zombie is still the root's child" true
        (List.mem (Proc.getpid mid) (Proc.children u0));
      Atomic.set gate true;
      ignore (wait_ok ~parent:u0 ~vpid:(Proc.getpid mid));
      spin_until "orphan self-reap" (fun () -> Proc.live_procs w = 1))

(* A reaped ULP is garbage: the parent's children list drops reaped
   entries as it grows, so 20k spawn/reap cycles leave the heap where
   they found it (each ULP kept reachable is ~900 words). *)
let test_reaped_ulps_are_garbage () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      Gc.full_major ();
      let before = (Gc.stat ()).Gc.live_words in
      for _ = 1 to 20_000 do
        let c = Proc.spawn ~parent:u0 (fun _ -> ()) in
        ignore (wait_ok ~parent:u0 ~vpid:(Proc.getpid c))
      done;
      Gc.full_major ();
      let grown = (Gc.stat ()).Gc.live_words - before in
      Alcotest.(check int) "all reaped" 1 (Proc.live_procs w);
      if grown > 1_000_000 then
        Alcotest.failf "20k reaped ULPs left %d live words behind" grown)

(* The cost of a process over the fiber it wraps, in allocation: the
   fd table and the signal handlers are built on first use, so an
   empty ULP at the default 256-slot capacity allocates a bounded few
   hundred minor words per spawn + waitpid (a bare fiber spawn + join is
   about 130; a table of 256 slot atomics alone is over 750). *)
let test_spawn_cost_gate () =
  Fiber.run (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let cycle () =
        let c = Proc.spawn ~parent:u0 (fun _ -> ()) in
        ignore (wait_ok ~parent:u0 ~vpid:(Proc.getpid c))
      in
      for _ = 1 to 500 do
        cycle ()
      done;
      let n = 5_000 in
      let m0 = Gc.minor_words () in
      for _ = 1 to n do
        cycle ()
      done;
      let per_op = (Gc.minor_words () -. m0) /. float n in
      Printf.printf "spawn + waitpid: %.0f minor words per op\n" per_op;
      if per_op > 400. then
        Alcotest.failf "an empty ULP allocates %.0f minor words per op (> 400)"
          per_op)

let await c =
  if not (Fiber_rt.Completion.is_done c) then
    Fiber.suspend (fun wake -> Fiber_rt.Completion.add_joiner c wake)

(* 2000 children reaped in a seeded random order: [children] is exact
   after every reap, including while the list is rebuilt under it (a
   short-lived child is spawned every 250 reaps), and the orphan that
   one middle child leaves behind is adopted by the root and reaps
   itself. *)
let test_many_children_random_reaps () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let n = 2000 in
      let gate = Fiber_rt.Completion.create () in
      let leaf_gate = Fiber_rt.Completion.create () in
      let leaf_box = Atomic.make None in
      let mid = n / 2 in
      let kids =
        Array.init n (fun i ->
            Proc.spawn ~parent:u0 (fun u ->
                if i = mid then
                  Atomic.set leaf_box
                    (Some (Proc.spawn ~parent:u (fun _ -> await leaf_gate)));
                await gate))
      in
      spin_until "leaf spawn" (fun () -> Atomic.get leaf_box <> None);
      let leaf = Proc.getpid (Option.get (Atomic.get leaf_box)) in
      Alcotest.(check bool) "a grandchild is not the root's to wait" true
        (Proc.try_waitpid ~parent:u0 ~vpid:leaf = Error `Echild);
      Fiber_rt.Completion.finish gate ();
      Array.iter
        (fun c -> spin_until "child exit" (fun () -> Proc.status_of c <> None))
        kids;
      let order = Array.map Proc.getpid kids in
      let rng = Test_seed.rand_state () in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      let sorted l = List.sort compare l in
      let where = Printf.sprintf "(TEST_SEED=%d)" Test_seed.seed in
      Array.iteri
        (fun k vpid ->
          ignore (wait_ok ~parent:u0 ~vpid);
          if k mod 250 = 0 then begin
            let c = Proc.spawn ~parent:u0 (fun _ -> ()) in
            Alcotest.(check bool) ("a new child is listed " ^ where) true
              (List.mem (Proc.getpid c) (Proc.children u0));
            ignore (wait_ok ~parent:u0 ~vpid:(Proc.getpid c))
          end;
          let rest = Array.to_list (Array.sub order (k + 1) (n - k - 1)) in
          Alcotest.(check (list int))
            (Printf.sprintf "children after %d reaps %s" (k + 1) where)
            (sorted (leaf :: rest))
            (sorted (Proc.children u0)))
        order;
      Fiber_rt.Completion.finish leaf_gate ();
      spin_until "orphan self-reap" (fun () -> Proc.live_procs w = 1);
      Alcotest.(check (list int)) "no children left" [] (Proc.children u0))

(* A ULP that has exited but is not yet reaped has handed its children
   to the root; a child spawned under it now would have no parent left
   to reap it and keep the population above 1 for good, so the spawn is
   refused. *)
let test_spawn_under_exited_parent () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let mid = Proc.spawn ~parent:u0 (fun _ -> ()) in
      spin_until "mid exit" (fun () -> Proc.status_of mid <> None);
      (match Proc.spawn ~parent:mid (fun _ -> ()) with
      | _ -> Alcotest.fail "spawned a child under an exited parent"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "only the root and the zombie" 2
        (Proc.live_procs w);
      ignore (wait_ok ~parent:u0 ~vpid:(Proc.getpid mid));
      Alcotest.(check int) "population back to 1" 1 (Proc.live_procs w);
      Alcotest.(check (list int)) "no children left" [] (Proc.children u0))

(* ---------- signals ---------- *)

let looper u =
  let rec loop () =
    Proc.check u;
    Fiber.yield ();
    loop ()
  in
  loop ()

let test_kill_default_disposition () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let c = Proc.spawn ~parent:u0 looper in
      let vpid = Proc.getpid c in
      Alcotest.(check bool) "kill posts" true
        (Proc.kill w ~vpid Proc.sigterm = Ok ());
      Alcotest.(check status) "default disposition terminates the tree"
        (Proc.Signaled Proc.sigterm)
        (wait_ok ~parent:u0 ~vpid);
      Alcotest.(check bool) "signalling the reaped vpid is ESRCH" true
        (Proc.kill w ~vpid Proc.sigterm = Error `Esrch))

let test_handler_runs_at_check () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let got = Atomic.make 0 in
      let ready = Atomic.make false in
      let c =
        Proc.spawn ~parent:u0 (fun u ->
            Proc.on_signal u ~signum:Proc.sigusr1
              (Some (fun s -> if s = Proc.sigusr1 then Atomic.incr got));
            Atomic.set ready true;
            while Atomic.get got = 0 do
              Proc.check u;
              Fiber.yield ()
            done)
      in
      let vpid = Proc.getpid c in
      spin_until "handler installed" (fun () -> Atomic.get ready);
      Alcotest.(check bool) "kill posts" true
        (Proc.kill w ~vpid Proc.sigusr1 = Ok ());
      Alcotest.(check status) "handled signal does not terminate"
        (Proc.Exited 0)
        (wait_ok ~parent:u0 ~vpid);
      Alcotest.(check int) "handler ran exactly once" 1 (Atomic.get got))

(* Installing one handler keeps the others, and resetting one to [None]
   restores its default disposition. *)
let test_handler_reset () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let ready = Atomic.make false in
      let c =
        Proc.spawn ~parent:u0 (fun u ->
            Proc.on_signal u ~signum:Proc.sigusr1 (Some ignore);
            Proc.on_signal u ~signum:Proc.sigterm (Some ignore);
            Proc.on_signal u ~signum:Proc.sigusr1 None;
            Atomic.set ready true;
            while true do
              Proc.check u;
              Fiber.yield ()
            done)
      in
      let vpid = Proc.getpid c in
      spin_until "handlers set" (fun () -> Atomic.get ready);
      ignore (Proc.kill w ~vpid Proc.sigterm);
      spin_until "sigterm handled" (fun () -> Proc.pending c = 0);
      Alcotest.(check bool) "handled sigterm does not terminate" true
        (Proc.status_of c = None);
      ignore (Proc.kill w ~vpid Proc.sigusr1);
      Alcotest.(check status) "reset sigusr1 terminates"
        (Proc.Signaled Proc.sigusr1)
        (wait_ok ~parent:u0 ~vpid))

let test_sigkill_uncatchable () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let c =
        Proc.spawn ~parent:u0 (fun u ->
            (match Proc.on_signal u ~signum:Proc.sigkill (Some ignore) with
            | () -> Alcotest.fail "on_signal accepted SIGKILL"
            | exception Invalid_argument _ -> ());
            looper u)
      in
      let vpid = Proc.getpid c in
      Alcotest.(check bool) "kill -9 posts" true
        (Proc.kill w ~vpid Proc.sigkill = Ok ());
      Alcotest.(check status) "SIGKILL terminates regardless"
        (Proc.Signaled Proc.sigkill)
        (wait_ok ~parent:u0 ~vpid))

let test_pending_mask () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let gate = Atomic.make false in
      let ready = Atomic.make false in
      let c =
        Proc.spawn ~parent:u0 (fun u ->
            Proc.on_signal u ~signum:Proc.sigusr1 (Some ignore);
            Proc.on_signal u ~signum:Proc.sigusr2 (Some ignore);
            Atomic.set ready true;
            while not (Atomic.get gate) do
              Fiber.yield () (* deliberately NOT checking: bits pile up *)
            done;
            Proc.check u)
      in
      let vpid = Proc.getpid c in
      (* a signal posted before the handler is installed takes the
         default disposition -- wait for the installs *)
      spin_until "handlers installed" (fun () -> Atomic.get ready);
      ignore (Proc.kill w ~vpid Proc.sigusr1);
      ignore (Proc.kill w ~vpid Proc.sigusr2);
      ignore (Proc.kill w ~vpid Proc.sigusr1) (* idempotent: same bit *);
      spin_until "both bits pending" (fun () ->
          Proc.pending c land (1 lsl Proc.sigusr1) <> 0
          && Proc.pending c land (1 lsl Proc.sigusr2) <> 0);
      Atomic.set gate true;
      Alcotest.(check status) "handled at the next check" (Proc.Exited 0)
        (wait_ok ~parent:u0 ~vpid);
      Alcotest.(check int) "mask drained" 0 (Proc.pending c))

(* ---------- multi-ULP fiber trees ---------- *)

let test_spawn_fiber_failure_kills_ulp () =
  on_stress_domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let c =
        Proc.spawn ~parent:u0 (fun u ->
            Proc.spawn_fiber u (fun () -> failwith "worker blew up");
            looper u)
      in
      Alcotest.(check status)
        "a fiber's crash takes the whole ULP (first failure wins)"
        (Proc.Exited 125)
        (wait_ok ~parent:u0 ~vpid:(Proc.getpid c)))

(* ---------- multi-domain stress under TEST_SEED ---------- *)

let multidomain_stress domains =
  Fiber.run_parallel ~domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let n = 300 in
      let kids =
        List.init n (fun i ->
            let st = Test_seed.derived_state i in
            let dice = Random.State.int st 100 in
            let code = Random.State.int st 7 in
            let kind =
              if dice < 25 then `Kill
              else if dice < 50 then `Exit code
              else if dice < 75 then `Fibers code
              else `Return
            in
            let u =
              Proc.spawn ~parent:u0 (fun u ->
                  match kind with
                  | `Kill -> looper u
                  | `Exit code -> Proc.exit u code
                  | `Fibers code ->
                      let hits = Atomic.make 0 in
                      for _ = 1 to 3 do
                        Proc.spawn_fiber u (fun () -> Atomic.incr hits)
                      done;
                      while Atomic.get hits < 3 do
                        Proc.check u;
                        Fiber.yield ()
                      done;
                      Proc.exit u code
                  | `Return -> ())
            in
            (u, kind))
      in
      List.iter
        (fun (u, kind) ->
          let vpid = Proc.getpid u in
          if kind = `Kill then
            ignore (Proc.kill w ~vpid Proc.sigterm))
        kids;
      List.iter
        (fun (u, kind) ->
          let vpid = Proc.getpid u in
          let st = wait_ok ~parent:u0 ~vpid in
          let expected =
            match kind with
            | `Kill -> Proc.Signaled Proc.sigterm
            | `Exit code | `Fibers code -> Proc.Exited code
            | `Return -> Proc.Exited 0
          in
          Alcotest.(check status)
            (Printf.sprintf "vpid %d (TEST_SEED=%d, %d domains)" vpid
               Test_seed.seed domains)
            expected st)
        kids;
      Alcotest.(check int) "table drained to the root" 1 (Proc.live_procs w))

let test_multidomain_stress () = List.iter multidomain_stress stress_domains

(* A three-level tree on several domains: the root spawns middle ULPs,
   each middle spawns grandchildren and exits at a point drawn from
   TEST_SEED -- before its children exit, between their exits, after
   them, or racing them -- so a parent's exit meets its children's
   exits on real domains.  Two root fibers race for each middle's
   status (a blocking waitpid and a WNOHANG poll): it arrives exactly
   once, with the middle's code.  The orphans reap themselves, so the
   tree drains to the root; the run returning shows no waiter was left
   parked. *)
let three_level_stress domains =
  let middles = 120 in
  Fiber.run_parallel ~domains (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      let where =
        Printf.sprintf "(TEST_SEED=%d, %d domains)" Test_seed.seed domains
      in
      (* Alcotest's checks print through one Format state: fibers on
         several domains record the first mismatch instead *)
      let wrong = Atomic.make None in
      let expect what want st =
        if st <> want then
          ignore (Atomic.compare_and_set wrong None (Some what))
      in
      let exited u = Proc.status_of u <> None in
      let idle u cond =
        while not (cond ()) do
          Proc.check u;
          Fiber.yield ()
        done
      in
      let middle i u =
        let st = Test_seed.derived_state i in
        let k = 1 + Random.State.int st 4 in
        let go = Atomic.make false in
        let kid j ~now =
          Proc.spawn ~parent:u (fun g ->
              (* [now]: exit at once; otherwise once the middle has
                 exited, or (racing) once it lets go *)
              if not now then idle g (fun () -> Atomic.get go || exited u);
              Proc.exit g j)
        in
        (match Random.State.int st 4 with
        | 0 -> (* before: every child outlives the middle *)
            ignore (List.init k (fun j -> kid j ~now:false))
        | 1 ->
            (* between: the first half exit, the rest outlive it *)
            let early = List.init ((k + 1) / 2) (fun j -> kid j ~now:true) in
            ignore (List.init (k / 2) (fun j -> kid j ~now:false));
            idle u (fun () -> List.for_all exited early)
        | 2 ->
            (* after: every child exits first; reap some, leave the
               rest as zombies for the exit to reap *)
            let kids = List.init k (fun j -> kid j ~now:true) in
            idle u (fun () -> List.for_all exited kids);
            List.iteri
              (fun j c ->
                if j mod 2 = 0 then
                  expect "a grandchild's status" (Ok (Proc.Exited j))
                    (Proc.waitpid ~parent:u ~vpid:(Proc.getpid c)))
              kids
        | _ ->
            (* racing: let the children go and exit at once *)
            ignore (List.init k (fun j -> kid j ~now:false));
            Atomic.set go true);
        Proc.exit u (i mod 7)
      in
      let mids = List.init middles (fun i -> Proc.spawn ~parent:u0 (middle i)) in
      let arrivals = Array.init middles (fun _ -> Atomic.make 0) in
      let got i st =
        expect "a middle's status" (Proc.Exited (i mod 7)) st;
        Atomic.incr arrivals.(i)
      in
      let reapers =
        List.concat
          (List.mapi
             (fun i m ->
               let vpid = Proc.getpid m in
               [
                 Fiber.spawn (fun () ->
                     match Proc.waitpid ~parent:u0 ~vpid with
                     | Ok st -> got i st
                     | Error `Echild -> ());
                 Fiber.spawn (fun () ->
                     let rec poll () =
                       match Proc.try_waitpid ~parent:u0 ~vpid with
                       | Ok (Some st) -> got i st
                       | Ok None ->
                           Fiber.yield ();
                           poll ()
                       | Error `Echild -> ()
                     in
                     poll ());
               ])
             mids)
      in
      List.iter Fiber.join reapers;
      Option.iter (fun what -> Alcotest.failf "wrong %s %s" what where)
        (Atomic.get wrong);
      Array.iteri
        (fun i n ->
          if Atomic.get n <> 1 then
            Alcotest.failf "middle %d's status arrived %d times %s" i
              (Atomic.get n) where)
        arrivals;
      spin_until "the orphans' self-reap" (fun () -> Proc.live_procs w = 1);
      Alcotest.(check (list int)) ("no children left " ^ where) []
        (Proc.children u0))

let test_three_level_stress () = List.iter three_level_stress stress_domains

(* A ULP's table grown from every domain at once: each worker adopts
   host fds, dups and closes the descriptors it holds, in a mix drawn
   from TEST_SEED, holding up to 40 at a time (fewer when that many
   workers would fill the table) so the table grows past its initial
   slots while the other workers claim and close through it.  Fresh
   ULPs, so fresh tables, repeat the growths.  Every resource must be
   destroyed exactly once, each table must end empty and the host fds
   back at their baseline.  The workers' fibers run on several domains
   at once, so they record mismatches in a [Domain_check] and the test
   reports them after the run. *)
let fd_growth_stress workers =
  let ulps = 100 and per = 60 in
  let fails = Domain_check.create () in
  let where =
    Printf.sprintf "(TEST_SEED=%d, %d domains)" Test_seed.seed workers
  in
  let destroyed = Array.init (ulps * workers * per) (fun _ -> Atomic.make 0) in
  let baseline = count_fds () in
  let stress_ulp u round =
    let t = Proc.fds u in
    (* an alloc and a dup above [hold] each: never EMFILE *)
    let hold = min 40 ((Fd.capacity t / workers) - 2) in
    let started = Atomic.make 0 and finished = Atomic.make 0 in
    for k = 0 to workers - 1 do
      Proc.spawn_fiber ~worker:k u (fun () ->
          let st = Test_seed.derived_state ((round * workers) + k) in
          let held = ref [] in
          let close_one () =
            match !held with
            | [] -> ()
            | l ->
                let v = List.nth l (Random.State.int st (List.length l)) in
                if not (Fd.close t v) then
                  Domain_check.note fails
                    (Printf.sprintf "close %d: EBADF %s" v where);
                held := List.filter (( <> ) v) l
          in
          (* start together, so the growths race the other workers *)
          Atomic.incr started;
          while Atomic.get started < workers do
            Fiber.yield ()
          done;
          for j = 0 to per - 1 do
            let id = (((round * workers) + k) * per) + j in
            let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
            let r =
              Fd.resource fd ~destroy:(fun fd ->
                  Atomic.incr destroyed.(id);
                  Unix.close fd)
            in
            (match Fd.alloc t r with
            | Some v -> held := v :: !held
            | None -> Fd.release r);
            (match Random.State.int st 4 with
            | 0 -> (
                match !held with
                | v :: _ -> (
                    match Fd.dup t v with
                    | Ok v' -> held := v' :: !held
                    | Error _ ->
                        Domain_check.note fails
                          (Printf.sprintf "dup %d failed %s" v where))
                | [] -> ())
            | 1 -> close_one ()
            | _ -> ());
            while List.length !held > hold do
              close_one ()
            done
          done;
          List.iter (fun v -> ignore (Fd.close t v)) !held;
          Atomic.incr finished)
    done;
    while Atomic.get finished < workers do
      Proc.check u;
      Fiber.yield ()
    done;
    Domain_check.check fails Alcotest.int ("table empty " ^ where) 0
      (Fd.count t)
  in
  Fiber.run_parallel ~domains:workers (fun () ->
      let w = Proc.boot () in
      let u0 = Proc.root w in
      for round = 0 to ulps - 1 do
        let c = Proc.spawn ~parent:u0 (fun u -> stress_ulp u round) in
        Domain_check.check fails status ("stress ULP exited " ^ where)
          (Proc.Exited 0)
          (wait_ok ~parent:u0 ~vpid:(Proc.getpid c))
      done);
  Domain_check.report fails;
  Array.iteri
    (fun id n ->
      if Atomic.get n <> 1 then
        Alcotest.failf "resource %d destroyed %d times %s" id (Atomic.get n)
          where)
    destroyed;
  match (baseline, count_fds ()) with
  | Some b, Some a -> Alcotest.(check int) "host fds back to baseline" b a
  | _ -> ()

let test_fd_growth_stress () = List.iter fd_growth_stress stress_domains

(* ---------- ULPs and the KC pool ---------- *)

let count_tasks () =
  match Sys.readdir "/proc/self/task" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

(* ULPs that couple one after another share a few recycled KC threads;
   each one holding its own OS thread until the run ended grew the
   process by one thread per ULP. *)
let test_coupled_ulps_recycle_kcs () =
  match count_tasks () with
  | None -> ()
  | Some _ ->
      let baseline = ref 0 and peak = ref 0 in
      on_stress_domains (fun () ->
          let w = Proc.boot () in
          let u0 = Proc.root w in
          baseline := Option.get (count_tasks ());
          for _ = 1 to 500 do
            let c =
              Proc.spawn ~parent:u0 (fun _ ->
                  ignore (Fiber_rt.Blt_rt.coupled (fun () -> ())))
            in
            Alcotest.(check status) "coupled ULP exited" (Proc.Exited 0)
              (wait_ok ~parent:u0 ~vpid:(Proc.getpid c));
            peak := max !peak (Option.get (count_tasks ()))
          done);
      if !peak > !baseline + 8 then
        Alcotest.failf "OS threads grew from %d to %d across 500 coupled ULPs"
          !baseline !peak

let () =
  Test_seed.announce "test_proc";
  Alcotest.run "proc"
    [
      ( "fd-table",
        [
          Alcotest.test_case "lowest free slot, POSIX order" `Quick
            test_fd_lowest_slot;
          Alcotest.test_case "dup2 closes the displaced target once" `Quick
            test_fd_dup2_closes_target_once;
          Alcotest.test_case "close_all under concurrent sharers" `Quick
            test_fd_close_all_concurrent_sharers;
        ] );
      ( "proc-io",
        [
          Alcotest.test_case "vfds allocate in POSIX order" `Quick
            test_io_lowest_slot_posix;
          Alcotest.test_case "dup2 never leaks the displaced host fd" `Quick
            test_io_dup2_no_host_leak;
          Alcotest.test_case "shared pipe crosses ULP namespaces" `Quick
            test_io_share_pipe_across_ulps;
          Alcotest.test_case "no fd leak across 1000 spawn/exit cycles"
            `Slow test_io_fd_leak_gate_1000_spawns;
          Alcotest.test_case "coupled ULPs recycle KC threads" `Quick
            test_coupled_ulps_recycle_kcs;
          Alcotest.test_case "no share or adopt into an exited ULP" `Quick
            test_io_no_bind_into_exited;
        ] );
      ( "wait",
        [
          Alcotest.test_case "spawn carries exit codes" `Quick
            test_spawn_exit_codes;
          Alcotest.test_case "WNOHANG polls, waitpid parks the fiber" `Quick
            test_try_waitpid_wnohang;
          Alcotest.test_case "zombie holds status until reaped" `Quick
            test_zombie_holds_status_until_reaped;
          Alcotest.test_case "orphans re-parent to root and self-reap"
            `Quick test_orphan_reparents_to_root;
          Alcotest.test_case "reaped ULPs are garbage" `Quick
            test_reaped_ulps_are_garbage;
          Alcotest.test_case "2000 children reaped in random order" `Quick
            test_many_children_random_reaps;
          Alcotest.test_case "an exited parent lists no orphans" `Quick
            test_zombie_lists_no_orphans;
          Alcotest.test_case "an empty ULP allocates <= 400 words" `Quick
            test_spawn_cost_gate;
          Alcotest.test_case "a parked root reaps its adopted orphan" `Quick
            test_parked_root_reaps_adopted;
          Alcotest.test_case "spawn under an exited parent is refused" `Quick
            test_spawn_under_exited_parent;
        ] );
      ( "signals",
        [
          Alcotest.test_case "default disposition terminates" `Quick
            test_kill_default_disposition;
          Alcotest.test_case "handlers run at check points" `Quick
            test_handler_runs_at_check;
          Alcotest.test_case "a reset handler restores the default" `Quick
            test_handler_reset;
          Alcotest.test_case "SIGKILL is uncatchable" `Quick
            test_sigkill_uncatchable;
          Alcotest.test_case "pending mask accumulates and drains" `Quick
            test_pending_mask;
        ] );
      ( "tree",
        [
          Alcotest.test_case "fiber failure kills the whole ULP" `Quick
            test_spawn_fiber_failure_kills_ulp;
          Alcotest.test_case "300 ULPs across nproc and nproc + 1 domains (TEST_SEED)" `Slow
            test_multidomain_stress;
          Alcotest.test_case "fd table grows under nproc and nproc + 1 domains (TEST_SEED)"
            `Slow test_fd_growth_stress;
          Alcotest.test_case "three-level tree on nproc and nproc + 1 domains (TEST_SEED)" `Slow
            test_three_level_stress;
        ] );
    ]
