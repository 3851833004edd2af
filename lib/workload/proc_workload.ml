(* ULP cost workloads for the process layer (lib/proc): what does a
   user-level process cost over the raw fiber it wraps?

   Two questions, each asked as a measured pair sharing one name prefix
   so BENCH_parallel.json diffs line them up:

   - spawn cost: [ulp_spawn] creates N ULPs (vpid allocation, process
     table insert, private fd table, Scope) and waitpid-reaps them all;
     [ulp_spawn_fiber_base] spawns and joins N bare fibers.  The gap is
     the per-process bookkeeping the paper's Table III prices against
     kernel processes -- here priced against our own fibers.

   - fd-table indirection: [fd_indirection] shares ONE host fd
     (/dev/null) into every ULP's private table -- exercising the
     cross-table refcount exactly as a server sharing a connection with
     a per-connection ULP would -- and funnels 1-byte writes through
     the Proc_io resolve-pin-syscall-release path; [fd_direct] issues
     the same writes through bare Fiber_io on the host fd.  The gap is
     the table lookup plus the retain/release pair per operation.

   Both pairs run under [Par_workload.with_stats], so rows carry the
   scheduler telemetry and flow into the v4 speedup sweep like every
   other workload.  The reactor is created OUTSIDE the timed region
   (writes to /dev/null never park; the reactor is plumbing, not the
   thing measured). *)

module Fiber = Fiber_rt.Fiber
module Reactor = Net.Reactor
module Fiber_io = Net.Fiber_io

let with_reactor f =
  let r = Reactor.create ~shards:1 () in
  Fun.protect ~finally:(fun () -> Reactor.shutdown r) (fun () -> f r)

(* [rounds] passes of spawn-everything-then-reap: concurrency per pass
   stays [ulps] (the 1k/10k-concurrent-ULPs claim), while the measured
   region grows past timer noise -- the bare-fiber baseline finishes
   1000 no-op spawns in ~0.15 ms, which is not a number, it is jitter. *)
let ulp_spawn ~domains ~ulps ~rounds =
  Par_workload.with_stats ~name:"proc_spawn" ~domains ~items:(ulps * rounds)
    (fun () ->
      let w = Proc.boot () in
      let root = Proc.root w in
      for _ = 1 to rounds do
        let kids =
          List.init ulps (fun _ -> Proc.spawn ~parent:root (fun _ -> ()))
        in
        List.iter
          (fun c ->
            match Proc.waitpid ~parent:root ~vpid:(Proc.getpid c) with
            | Ok _ -> ()
            | Error `Echild -> failwith "proc_spawn: child vanished")
          kids;
        (* every zombie reaped: only the root may remain *)
        if Proc.live_procs w <> 1 then failwith "proc_spawn: unreaped ULPs"
      done)

let ulp_spawn_fiber_base ~domains ~ulps ~rounds =
  Par_workload.with_stats ~name:"proc_spawn_fiber_base" ~domains
    ~items:(ulps * rounds) (fun () ->
      for _ = 1 to rounds do
        let fs = List.init ulps (fun _ -> Fiber.spawn (fun () -> ())) in
        List.iter Fiber.join fs
      done)

let fd_indirection ~domains ~ulps ~writes =
  with_reactor (fun r ->
      Par_workload.with_stats ~name:"proc_fd_table" ~domains
        ~items:(ulps * writes) (fun () ->
          let w = Proc.boot () in
          let root = Proc.root w in
          let null = Proc.Io.openfile root "/dev/null" [ Unix.O_WRONLY ] 0 in
          let kids =
            List.init ulps (fun _ ->
                Proc.spawn ~parent:root (fun u ->
                    (* same host fd, this ULP's own name for it *)
                    let vfd = Proc.Io.share root null ~into:u in
                    let buf = Bytes.make 1 'x' in
                    for _ = 1 to writes do
                      Proc.Io.write_all r u vfd buf 0 1
                    done;
                    Proc.Io.close u vfd))
          in
          List.iter
            (fun c -> ignore (Proc.waitpid ~parent:root ~vpid:(Proc.getpid c)))
            kids;
          Proc.Io.close root null))

let fd_direct ~domains ~ulps ~writes =
  with_reactor (fun r ->
      Par_workload.with_stats ~name:"proc_fd_direct" ~domains
        ~items:(ulps * writes) (fun () ->
          let fd = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          Fiber_io.set_nonblock fd;
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let fs =
                List.init ulps (fun _ ->
                    Fiber.spawn (fun () ->
                        let buf = Bytes.make 1 'x' in
                        for _ = 1 to writes do
                          Fiber_io.write_all r fd buf 0 1
                        done))
              in
              List.iter Fiber.join fs)))
