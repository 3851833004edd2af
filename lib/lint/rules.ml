(* The rule set.  Each rule statically enforces a discipline invariant
   the runtime otherwise only checks dynamically (lib/check exploring
   the right interleaving) or not at all:

   - blocking-in-fiber: the scalability invariant behind Fig. 8 -- a
     worker domain that enters a blocking syscall stalls every fiber
     scheduled on it.  Blocking belongs to the reactor (Fiber_io /
     Reactor) or to a coupled section on the fiber's original KC.
   - raw-mutex-in-fiber: the synchronization discipline behind
     lib/fiber_rt/sync.ml -- a Stdlib.Mutex.lock or Condition.wait in
     fiber code parks the OS thread and with it every fiber on that
     worker domain; fiber code parks fibers (Sync.Mutex/Condition),
     raw mutexes stay with the runtime internals that really do
     coordinate OS threads (waived, with the reason written down).
   - atomic-get-then-set: the exact shape of both seeded checker bugs
     (Buggy_reactor.post, Buggy_completion.finish): a stale read
     followed by a store lets a concurrent CAS land in the window and
     be silently overwritten -- the classic lost wakeup.
   - atomic-check-then-faa: the check-then-act sibling -- a compared
     Atomic.get, then a fetch_and_add on the same atomic with no CAS
     between: two threads both pass the check, and the bound it
     enforces is breached (the pre-CAS Tcp_server max_conns race,
     kept as the ctf_bad fixture).
   - syscall-consistency: the paper's Section IV guarantee.  The
     simulation stack must stay host-syscall-free (its syscalls are
     simulated in lib/oskernel), and thread-keyed syscalls in real
     fiber code must run coupled to the original KC.
   - seam-bypass: modules recompiled into lib/check must route every
     atomic/mutex operation through the shadowing traced modules;
     a Stdlib.Atomic/Stdlib.Mutex reference silently escapes tracing.
   - mli-coverage: every lib module outside lib/check carries an .mli,
     so interface drift (PR 4's missing vma.mli) is caught at once. *)

open Ast_util

type ast_rule = {
  name : string;
  severity : Finding.severity;
  doc : string;
  in_scope : string list -> bool; (* path segments *)
  check : file:string -> Parsetree.structure -> Finding.t list;
}

(* ---------- scopes ---------- *)

let fiber_scope segs =
  has_pair "lib" "fiber_rt" segs
  || has_pair "lib" "net" segs
  || has_pair "lib" "proc" segs
  || has_pair "lib" "workload" segs
  || has_seg "examples" segs
  || has_seg "bench" segs

let sim_stack = [ "sim"; "arch"; "oskernel"; "addrspace"; "ult"; "core"; "aio"; "report" ]

let sim_scope segs = List.exists (fun d -> has_pair "lib" d segs) sim_stack

(* ---------- blocking-in-fiber ---------- *)

let blocking_unix = [ "read"; "write"; "select"; "sleep"; "sleepf"; "gettimeofday" ]

let blocking_in_fiber =
  {
    name = "blocking-in-fiber";
    severity = Finding.Error;
    doc =
      "no direct Unix.read/write/select/sleep/sleepf/gettimeofday, \
       Thread.delay or Parker.park in fiber code (lib/fiber_rt, lib/net, \
       lib/workload, examples, bench): a worker domain that blocks stalls \
       every fiber scheduled on it.  Go through Fiber_io/Reactor \
       (Clock.now for time), or run the call coupled to the fiber's \
       original KC.";
    in_scope = fiber_scope;
    check =
      (fun ~file ast ->
        let acc = ref [] in
        let add ~loc what hint =
          let line, col = pos_of loc in
          acc :=
            Finding.make ~rule:"blocking-in-fiber" ~severity:Finding.Error
              ~file ~line ~col
              (Printf.sprintf
                 "%s on a worker domain blocks every fiber scheduled there; %s"
                 what hint)
            :: !acc
        in
        iter_idents ast ~f:(fun ~coupled ~loc path ->
            if not coupled then
              match drop_stdlib path with
              | [ "Unix"; "gettimeofday" ] ->
                  add ~loc "Unix.gettimeofday"
                    "read time through the Fiber_rt.Clock seam"
              | [ "Unix"; f ] when List.mem f blocking_unix ->
                  add ~loc
                    (Printf.sprintf "blocking call Unix.%s" f)
                    "go through Fiber_io/Reactor, or run it coupled to the \
                     fiber's original KC"
              | [ "Thread"; "delay" ] ->
                  add ~loc "blocking call Thread.delay"
                    "use Reactor.sleep / Blt_rt.sleep, or run it coupled to \
                     the fiber's original KC"
              (* parks the calling OS thread until its permit is set:
                 only an idle worker or a KC may sleep there *)
              | [ "Parker"; "park" ] | [ "Fiber_rt"; "Parker"; "park" ] ->
                  add ~loc "blocking call Parker.park"
                    "park the fiber instead (Fiber.suspend, Sync); only an \
                     idle worker or a KC sleeps on its parker"
              (* the poller's C stubs release the OCaml runtime lock and
                 park the calling THREAD in poll(2)/epoll_wait(2) -- as
                 blocking as Unix.select to a worker domain *)
              | [ "poll_stub" ] | [ "Poller"; "poll_stub" ] ->
                  add ~loc "blocking call poll_stub (poll(2))"
                    "only a parked worker holding the reactor's turn may \
                     wait in the poller, never a fiber; fibers go through \
                     Fiber_io/Reactor"
              | [ "epoll_wait_stub" ] | [ "Poller"; "epoll_wait_stub" ] ->
                  add ~loc "blocking call epoll_wait_stub (epoll_wait(2))"
                    "only a parked worker holding the reactor's turn may \
                     wait in the poller, never a fiber; fibers go through \
                     Fiber_io/Reactor"
              | _ -> ());
        List.rev !acc);
  }

(* ---------- raw-mutex-in-fiber ---------- *)

let raw_mutex_in_fiber =
  {
    name = "raw-mutex-in-fiber";
    severity = Finding.Error;
    doc =
      "no Stdlib.Mutex.lock / Stdlib.Condition.wait in fiber code \
       (lib/fiber_rt, lib/net, lib/workload, examples, bench): a raw \
       mutex parks the OS THREAD, stalling every fiber scheduled on \
       that worker domain.  Use the fiber-aware Fiber_rt.Sync.Mutex / \
       Sync.Condition, which park only the calling fiber.  Runtime \
       internals that coordinate real OS threads (executor run queues, \
       domain parking, reactor handshakes) legitimately keep raw \
       mutexes -- under a written waiver.  Files defining their own \
       Mutex/Condition modules (sync.ml itself) are exempt.";
    in_scope = fiber_scope;
    check =
      (fun ~file ast ->
        let defined = defined_module_names ast in
        let shadows m = List.mem m defined in
        let acc = ref [] in
        let add ~loc what =
          let line, col = pos_of loc in
          acc :=
            Finding.make ~rule:"raw-mutex-in-fiber" ~severity:Finding.Error
              ~file ~line ~col
              (Printf.sprintf
                 "%s parks the OS thread and stalls every fiber on this \
                  worker domain; use the fiber-aware Fiber_rt.Sync \
                  primitive, or waive with the reason this state is \
                  shared with non-fiber OS threads"
                 what)
            :: !acc
        in
        iter_idents ast ~f:(fun ~coupled ~loc path ->
            if not coupled then
              match drop_stdlib path with
              | [ "Mutex"; "lock" ] when not (shadows "Mutex") ->
                  add ~loc "raw Mutex.lock"
              | [ "Condition"; "wait" ] when not (shadows "Condition") ->
                  add ~loc "raw Condition.wait"
              | _ -> ());
        List.rev !acc);
  }

(* ---------- atomic-get-then-set ---------- *)

let atomic_get_then_set =
  {
    name = "atomic-get-then-set";
    severity = Finding.Error;
    doc =
      "an Atomic.get followed by an Atomic.set on the same atomic in one \
       function body, with no interleaving \
       compare_and_set/exchange/fetch_and_add on it: a concurrent CAS can \
       land between the stale read and the store and be silently \
       overwritten (the seeded Buggy_reactor.post / \
       Buggy_completion.finish lost-wakeup shape).  Use a CAS loop, \
       exchange, or fetch_and_add.";
    in_scope = (fun _ -> true);
    check =
      (fun ~file ast ->
        let acc = ref [] in
        iter_atomic_frames ast ~analyze:(fun evs ->
            let pending = Hashtbl.create 8 in
            List.iter
              (fun (ev : aevent) ->
                match ev.op with
                | Aget -> Hashtbl.replace pending ev.key true
                | Acas | Afaa -> Hashtbl.replace pending ev.key false
                | Acmp -> ()
                | Aset ->
                    if Hashtbl.find_opt pending ev.key = Some true then
                      acc :=
                        Finding.make ~rule:"atomic-get-then-set"
                          ~severity:Finding.Error ~file ~line:ev.line
                          ~col:ev.col
                          (Printf.sprintf
                             "Atomic.set %s after an Atomic.get of it in the \
                              same function with no interleaving CAS: a \
                              concurrent update can land in the window and \
                              be overwritten (lost-wakeup shape); use \
                              compare_and_set/exchange/fetch_and_add"
                             ev.key)
                        :: !acc)
              evs);
        List.sort Finding.order !acc);
  }

(* ---------- atomic-check-then-faa ---------- *)

let atomic_check_then_faa =
  {
    name = "atomic-check-then-faa";
    severity = Finding.Error;
    doc =
      "an Atomic.get whose value is compared (directly, or through a \
       let-bound name) followed by an Atomic.fetch_and_add/incr/decr on \
       the same atomic in one function body, with no interleaving \
       compare_and_set/exchange on it: two threads can both pass the \
       check before either adds, so a bound the check enforces is \
       breached (the pre-CAS Tcp_server accept loop's max_conns race, \
       kept as the ctf_bad fixture).  Make the check and the update one \
       CAS loop that moves n to n+1 only while the check holds, or put \
       both under one lock.";
    in_scope = (fun _ -> true);
    check =
      (fun ~file ast ->
        let acc = ref [] in
        iter_atomic_frames ast ~analyze:(fun evs ->
            let checked = Hashtbl.create 8 in
            List.iter
              (fun (ev : aevent) ->
                match ev.op with
                | Acmp -> Hashtbl.replace checked ev.key true
                | Acas -> Hashtbl.replace checked ev.key false
                | Afaa ->
                    if Hashtbl.find_opt checked ev.key = Some true then
                      acc :=
                        Finding.make ~rule:"atomic-check-then-faa"
                          ~severity:Finding.Error ~file ~line:ev.line
                          ~col:ev.col
                          (Printf.sprintf
                             "Atomic.%s %s after comparing an Atomic.get of \
                              it in the same function with no interleaving \
                              CAS: two threads can both pass the check \
                              before either updates (check-then-act); use \
                              a compare_and_set loop"
                             ev.opname ev.key)
                        :: !acc
                | Aget | Aset -> ())
              evs);
        List.sort Finding.order !acc);
  }

(* ---------- syscall-consistency ---------- *)

let thread_keyed =
  [
    "getpid"; "getppid"; "fork"; "kill"; "signal"; "sigprocmask";
    "sigpending"; "sigsuspend"; "alarm"; "setitimer";
  ]

let syscall_consistency =
  {
    name = "syscall-consistency";
    severity = Finding.Error;
    doc =
      "the paper's Section IV guarantee, statically.  The simulation \
       stack (lib/sim, lib/oskernel, lib/core, ...) must stay \
       host-syscall-free -- its syscalls are simulated -- and \
       thread-keyed syscalls (getpid, signals, fork, timers) in real \
       fiber code must run inside coupled/coupled_syscall so they hit \
       the fiber's original KC.";
    in_scope = (fun segs -> sim_scope segs || fiber_scope segs);
    check =
      (fun ~file ast ->
        let segs = path_segments file in
        let sim = sim_scope segs in
        let acc = ref [] in
        let add ~loc msg =
          let line, col = pos_of loc in
          acc :=
            Finding.make ~rule:"syscall-consistency" ~severity:Finding.Error
              ~file ~line ~col msg
            :: !acc
        in
        iter_idents ast ~f:(fun ~coupled ~loc path ->
            match drop_stdlib path with
            | "Unix" :: f :: _ when sim ->
                add ~loc
                  (Printf.sprintf
                     "host syscall Unix.%s in the simulation stack: ULP \
                      syscalls are simulated through lib/oskernel and the \
                      couple/decouple wrappers; a raw host call bypasses \
                      the consistency machinery"
                     f)
            | [ "Unix"; f ] when (not coupled) && List.mem f thread_keyed ->
                add ~loc
                  (Printf.sprintf
                     "thread-keyed syscall Unix.%s outside a coupled \
                      section: on a migrated fiber it reads another KC's \
                      state (Section IV); wrap it in \
                      Blt_rt.coupled_syscall"
                     f)
            | _ -> ());
        List.rev !acc);
  }

(* ---------- raw-fd-in-proc ---------- *)

let raw_fd_calls = [ "openfile"; "close"; "dup"; "dup2"; "pipe"; "socket" ]

let raw_fd_in_proc =
  {
    name = "raw-fd-in-proc";
    severity = Finding.Warning;
    doc =
      "no direct Unix.openfile/close/dup/dup2/pipe/socket in the process \
       layer (lib/proc) or in ULP-managed handlers (examples referencing \
       Proc): a host fd touched behind the private fd table's back \
       bypasses the refcount, so a sharing ULP double-closes or leaks.  \
       Go through Proc.Io (openfile/close/dup/share), which resolves \
       and pins descriptors through the owning ULP's table.  The \
       table's own entry points and destroy callback are the one \
       authorized home of these calls -- under a written waiver.";
    in_scope =
      (fun segs -> has_pair "lib" "proc" segs || has_seg "examples" segs);
    check =
      (fun ~file ast ->
        let segs = path_segments file in
        (* in examples, only handlers that actually manage ULPs are
           held to the table discipline *)
        let ulp_managed =
          if has_pair "lib" "proc" segs then true
          else begin
            let found = ref false in
            iter_idents ast ~f:(fun ~coupled:_ ~loc:_ path ->
                match path with "Proc" :: _ -> found := true | _ -> ());
            !found
          end
        in
        if not ulp_managed then []
        else begin
          let acc = ref [] in
          iter_idents ast ~f:(fun ~coupled:_ ~loc path ->
              match drop_stdlib path with
              | [ "Unix"; f ] when List.mem f raw_fd_calls ->
                  let line, col = pos_of loc in
                  acc :=
                    Finding.make ~rule:"raw-fd-in-proc"
                      ~severity:Finding.Warning ~file ~line ~col
                      (Printf.sprintf
                         "Unix.%s bypasses the ULP's private fd table: the \
                          refcount never sees it, so a sharing ULP \
                          double-closes or leaks the host fd; go through \
                          Proc.Io, or waive the table's own entry points \
                          with the reason"
                         f)
                    :: !acc
              | _ -> ());
          List.rev !acc
        end);
  }

let ast_rules =
  [
    blocking_in_fiber;
    raw_mutex_in_fiber;
    atomic_get_then_set;
    atomic_check_then_faa;
    syscall_consistency;
    raw_fd_in_proc;
  ]

(* ---------- seam-bypass (driven by dune copy_files# manifests) ---------- *)

let seam_name = "seam-bypass"

let seam_doc =
  "modules recompiled into lib/check via copy_files# must touch shared \
   state only through the shadowing traced Atomic/Mutex modules \
   (Atomic_intf seam); a Stdlib.Atomic or Stdlib.Mutex reference \
   compiles but silently escapes tracing, so the checker explores a \
   model that is not the shipped code."

let check_seam ~file ~dune ast =
  let acc = ref [] in
  let hit ~loc path =
    match path with
    | "Stdlib" :: (("Atomic" | "Mutex") as m) :: _ ->
        let line, col = pos_of loc in
        acc :=
          Finding.make ~rule:seam_name ~severity:Finding.Error ~file ~line
            ~col
            (Printf.sprintf
               "Stdlib.%s referenced in a module recompiled into a checker \
                library (%s): the call bypasses the traced seam and the \
                interleaving checker never sees it; use the ambient \
                %s module"
               m dune m)
          :: !acc
    | _ -> ()
  in
  iter_idents ast
    ~f:(fun ~coupled:_ ~loc path -> hit ~loc path)
    ~fmod:(fun ~loc path -> hit ~loc path);
  List.rev !acc

(* ---------- mli-coverage (file-level, no parsing needed) ---------- *)

let mli_name = "mli-coverage"

let mli_doc =
  "every lib/**/*.ml outside lib/check ships a .mli: missing interfaces \
   are how doc drift starts (PR 4's vma.mli), and an explicit signature \
   is what keeps internal mutable state out of reach.  lib/check is \
   exempt -- its modules exist to shadow and instrument."

let mli_in_scope segs =
  has_seg "lib" segs && not (has_pair "lib" "check" segs)

let check_mli ~file =
  let mli = Filename.remove_extension file ^ ".mli" in
  if Sys.file_exists mli then []
  else
    [
      Finding.make ~rule:mli_name ~severity:Finding.Error ~file ~line:1 ~col:0
        (Printf.sprintf "module has no interface file (%s)"
           (Filename.basename mli));
    ]

(* ---------- the interprocedural rules (engine in Summary / Callgraph /
   Lockgraph; metadata here so the catalog stays the one registry) ---------- *)

let transitive_blocking_name = "transitive-blocking-in-fiber"

let transitive_blocking_doc =
  "a fiber-context function that reaches a blocking syscall through a \
   wrapper chain ('Fibers are not (P)Threads': blocking leaks through \
   helpers the direct rule cannot see).  Built on per-function \
   summaries + a call-graph fixpoint; the finding sits at the call \
   site and carries the full chain down to the leaf.  Waive the seam \
   itself (the direct blocking-in-fiber site) to clear every caller \
   with one written reason."

let park_while_locked_name = "park-while-locked"

let park_while_locked_doc =
  "calling a may-park function (directly or transitively) while the \
   held-lock summary says a mutex is held: the fiber that must \
   take that lock to produce the wakeup can never run -- the classic \
   stall-every-fiber deadlock shape.  Condition.wait is exempt on its \
   own mutex (released atomically around the park); Sync.Mutex.lock \
   itself is excluded (nested acquisition is lock-order-inversion's \
   domain).  Waivers must write down the handoff protocol that makes \
   the park safe."

let lock_order_inversion_name = "lock-order-inversion"

let lock_order_inversion_doc =
  "a cycle in the global lock-acquisition-order graph ('Basic Lock \
   Algorithms in Lightweight Thread Environments'): two executions can \
   take the same locks in opposite orders and deadlock.  Lock \
   identities are definition sites (module-level create bindings), so \
   field projections never conflate; edges come from nested \
   acquisitions and from calls made with a lock held into functions \
   that may acquire another.  The finding carries one witness cycle, \
   edge by edge."

let missed_cancellation_name = "missed-cancellation-point"

let missed_cancellation_doc =
  "a loop in ULP handler code (lib/proc, or examples referencing Proc) \
   none of whose calls reaches a cancellation point (Proc.check / \
   Scope.check / any parking call): signal delivery is cooperative \
   (ROADMAP residual), so the ULP is unkillable while it spins.  \
   CAS-retry loops (atomic RMW in the body) and call-free compute \
   loops are exempt."

(* ---------- catalog ---------- *)

let catalog =
  [
    (blocking_in_fiber.name, blocking_in_fiber.severity, blocking_in_fiber.doc);
    ( transitive_blocking_name,
      Finding.Error,
      transitive_blocking_doc );
    (park_while_locked_name, Finding.Error, park_while_locked_doc);
    (lock_order_inversion_name, Finding.Error, lock_order_inversion_doc);
    (missed_cancellation_name, Finding.Warning, missed_cancellation_doc);
    (raw_mutex_in_fiber.name, raw_mutex_in_fiber.severity, raw_mutex_in_fiber.doc);
    (atomic_get_then_set.name, atomic_get_then_set.severity, atomic_get_then_set.doc);
    (atomic_check_then_faa.name, atomic_check_then_faa.severity, atomic_check_then_faa.doc);
    (seam_name, Finding.Error, seam_doc);
    (syscall_consistency.name, syscall_consistency.severity, syscall_consistency.doc);
    (raw_fd_in_proc.name, raw_fd_in_proc.severity, raw_fd_in_proc.doc);
    (mli_name, Finding.Error, mli_doc);
    ( "parse-error",
      Finding.Error,
      "a walked .ml file failed to parse; ulplint cannot vouch for it" );
    ( "bad-waiver",
      Finding.Error,
      "a malformed ulplint directive, or a waiver without a written reason" );
    ( "unused-waiver",
      Finding.Warning,
      "a waiver that suppresses nothing; delete it so exemptions stay \
       auditable" );
  ]
