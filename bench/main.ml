(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section VI) on the simulated machines, runs the
   ablation studies of DESIGN.md, and measures the real fiber runtime
   and the lib/net serving stack on wall clock.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table3       -- one experiment
     (targets: table3 table4 table5 figure7 figure8
      ablation-tls ablation-idle ablation-faults ablation-mn
      ablation-sigmask ablation-blocking ablation-oversub
      ablation-nonblock ablation-policy
      parallel net [--quick] [--diff old.json]
      validate validate-net)

   The [parallel] target measures the work-stealing multicore fiber
   scheduler for 1, 2 and 4 domains (warmup + repetitions, median/p99
   per config) and writes BENCH_parallel.json; [net] load-tests the
   lib/net echo server and writes BENCH_net.json.  [--quick] shrinks
   both for CI smoke runs, [--diff old.json] appends regression tables
   against a previous run's JSON, and [validate] / [validate-net]
   re-parse the files and exit nonzero on any violated check -- the CI
   gates.  The file schemas, tables, diffs and checks are declared in
   Report.Bench_file; this harness only measures the rows.

   Absolute numbers for Tables III-V are expected to match the paper
   closely (the base rows are calibration, the composites are validated
   model output); Figures 7-8 reproduce shapes, not testbed-exact
   values.  See EXPERIMENTS.md for the recorded comparison. *)

open Workload
module Cm = Arch.Cost_model
module Table = Report.Table
module Plot = Report.Ascii_plot

let machines = [ Arch.Machines.wallaby; Arch.Machines.albireo ]

let iters = 200

let sci = Table.sci

let delta_pct expected actual =
  if expected = 0.0 then "-"
  else Printf.sprintf "%+.1f%%" (100.0 *. (actual -. expected) /. expected)

(* ---------------------------------------------------------------- *)
(* Table III: context switch and TLS load                            *)
(* ---------------------------------------------------------------- *)

(* paper values: (machine, ctx_switch, tls_load) *)
let table3_paper = [ ("Wallaby", 3.34e-8, 1.09e-7); ("Albireo", 2.45e-8, 2.5e-9) ]

let run_table3 () =
  let t =
    Table.create ~title:"Table III: context switch and load TLS [s]"
      ~headers:
        [ "machine"; "ctx switch"; "paper"; "d"; "load TLS"; "paper"; "d"; "cycles(ctx)" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
                Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun m ->
      let r = Microbench.table3 ~iters m in
      let _, p_ctx, p_tls =
        List.find (fun (n, _, _) -> n = m.Cm.name)
          (List.map (fun (n, a, b) -> (n, a, b)) table3_paper)
      in
      let cyc =
        match m.Cm.isa with
        | Cm.X86_64 -> Printf.sprintf "%.0f" (Cm.cycles m r.Microbench.ctx_switch)
        | Cm.Aarch64 -> "-"
      in
      Table.add_row t
        [
          m.Cm.name;
          sci r.Microbench.ctx_switch;
          sci p_ctx;
          delta_pct p_ctx r.Microbench.ctx_switch;
          sci r.Microbench.tls_load;
          sci p_tls;
          delta_pct p_tls r.Microbench.tls_load;
          cyc;
        ])
    machines;
  Table.print t

(* ---------------------------------------------------------------- *)
(* Table IV: yielding time                                           *)
(* ---------------------------------------------------------------- *)

let table4_paper =
  [
    ("Wallaby", 1.50e-7, 2.66e-7, 7.79e-8);
    ("Albireo", 1.20e-7, 1.22e-6, 3.48e-7);
  ]

let run_table4 () =
  let t =
    Table.create ~title:"Table IV: yielding time, 2 ULPs or PThreads [s]"
      ~headers:
        [ "machine"; "row"; "measured"; "paper"; "d" ]
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun m ->
      let r = Microbench.table4 ~iters m in
      let _, p_ulp, p_1c, p_2c =
        List.find (fun (n, _, _, _) -> n = m.Cm.name) table4_paper
      in
      let row label v p =
        Table.add_row t [ m.Cm.name; label; sci v; sci p; delta_pct p v ]
      in
      row "ULP-PiP yield" r.Microbench.ulp_yield p_ulp;
      row "sched_yield on 1 core" r.Microbench.sched_yield_1core p_1c;
      row "sched_yield on 2 cores" r.Microbench.sched_yield_2cores p_2c)
    machines;
  Table.print t

(* ---------------------------------------------------------------- *)
(* Table V: getpid()                                                 *)
(* ---------------------------------------------------------------- *)

let table5_paper =
  [
    ("Wallaby", 6.71e-8, 1.33e-6, 2.91e-6);
    ("Albireo", 3.85e-7, 2.71e-6, 4.48e-6);
  ]

let run_table5 () =
  let t =
    Table.create ~title:"Table V: time of getpid() [s]"
      ~headers:[ "machine"; "row"; "measured"; "paper"; "d" ]
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun m ->
      let r = Microbench.table5 ~iters m in
      let _, p_linux, p_bw, p_bl =
        List.find (fun (n, _, _, _) -> n = m.Cm.name) table5_paper
      in
      let row label v p =
        Table.add_row t [ m.Cm.name; label; sci v; sci p; delta_pct p v ]
      in
      row "Linux" r.Microbench.linux p_linux;
      row "ULP-PiP: BUSYWAIT" r.Microbench.busywait p_bw;
      row "ULP-PiP: BLOCKING" r.Microbench.blocking p_bl)
    machines;
  Table.print t

(* ---------------------------------------------------------------- *)
(* Figure 7: open-write-close slowdown                               *)
(* ---------------------------------------------------------------- *)

let run_figure7 () =
  List.iter
    (fun m ->
      let points = Owc.figure7 ~iters:100 m in
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Figure 7 (%s): slowdown of open-write-close vs plain syscalls"
               m.Cm.name)
          ~headers:
            [ "buffer"; "plain [s]"; "ULP-BUSYWAIT"; "ULP-BLOCKING";
              "AIO-return"; "AIO-suspend" ]
          ~aligns:
            [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
              Table.Right ]
          ()
      in
      List.iter
        (fun (p : Owc.f7_point) ->
          let sd v = Printf.sprintf "%.3f" (Owc.slowdown p v) in
          Table.add_row t
            [
              Harness.size_label p.Owc.bytes;
              sci p.Owc.t_plain;
              sd p.Owc.t_ulp_busywait;
              sd p.Owc.t_ulp_blocking;
              sd p.Owc.t_aio_return;
              sd p.Owc.t_aio_suspend;
            ])
        points;
      Table.print t;
      let serie glyph label f =
        Plot.series ~label ~glyph
          (List.map
             (fun (p : Owc.f7_point) ->
               (float_of_int p.Owc.bytes, Owc.slowdown p (f p)))
             points)
      in
      Plot.print
        ~title:(Printf.sprintf "Figure 7 (%s), slowdown over buffer size" m.Cm.name)
        [
          serie 'b' "ULP-BUSYWAIT" (fun p -> p.Owc.t_ulp_busywait);
          serie 'B' "ULP-BLOCKING" (fun p -> p.Owc.t_ulp_blocking);
          serie 'r' "AIO-return" (fun p -> p.Owc.t_aio_return);
          serie 's' "AIO-suspend" (fun p -> p.Owc.t_aio_suspend);
        ];
      print_newline ())
    machines

(* ---------------------------------------------------------------- *)
(* Figure 8: overlap ratios                                          *)
(* ---------------------------------------------------------------- *)

let run_figure8 () =
  List.iter
    (fun m ->
      let points = Overlap.figure8 ~iters:100 m in
      let t =
        Table.create
          ~title:
            (Printf.sprintf "Figure 8 (%s): overlap ratio [%%] (IMB method)"
               m.Cm.name)
          ~headers:
            [ "buffer"; "ULP-BUSYWAIT"; "ULP-BLOCKING"; "AIO-return";
              "AIO-suspend" ]
          ~aligns:
            [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
          ()
      in
      List.iter
        (fun (p : Overlap.f8_point) ->
          let pc v = Printf.sprintf "%.1f" v in
          Table.add_row t
            [
              Harness.size_label p.Overlap.bytes;
              pc p.Overlap.ulp_busywait;
              pc p.Overlap.ulp_blocking;
              pc p.Overlap.aio_return;
              pc p.Overlap.aio_suspend;
            ])
        points;
      Table.print t;
      let serie glyph label f =
        Plot.series ~label ~glyph
          (List.map
             (fun (p : Overlap.f8_point) -> (float_of_int p.Overlap.bytes, f p))
             points)
      in
      Plot.print
        ~title:(Printf.sprintf "Figure 8 (%s), overlap %% over buffer size" m.Cm.name)
        [
          serie 'b' "ULP-BUSYWAIT" (fun p -> p.Overlap.ulp_busywait);
          serie 'B' "ULP-BLOCKING" (fun p -> p.Overlap.ulp_blocking);
          serie 'r' "AIO-return" (fun p -> p.Overlap.aio_return);
          serie 's' "AIO-suspend" (fun p -> p.Overlap.aio_suspend);
        ];
      print_newline ())
    machines

(* ---------------------------------------------------------------- *)
(* Ablations                                                         *)
(* ---------------------------------------------------------------- *)

let run_ablation_tls () =
  let t =
    Table.create
      ~title:"Ablation A1: ULP yield with and without the TLS-load cost [s]"
      ~headers:[ "machine"; "with TLS"; "without TLS"; "difference" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun m ->
      let r = Ablations.tls_ablation ~iters m in
      Table.add_row t
        [
          m.Cm.name;
          sci r.Ablations.with_tls;
          sci r.Ablations.without_tls;
          sci (r.Ablations.with_tls -. r.Ablations.without_tls);
        ])
    machines;
  Table.print t;
  print_endline
    "  (the difference is exactly the per-switch TLS register load: the\n\
    \   arch_prctl syscall on x86_64, a register write on AArch64)"

let run_ablation_idle () =
  let t =
    Table.create
      ~title:
        "Ablation A2: Table V BUSYWAIT roundtrip vs handoff-latency multiplier"
      ~headers:[ "machine"; "x0.25"; "x0.5"; "x1"; "x2"; "x4" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      ()
  in
  List.iter
    (fun m ->
      let sweep = Ablations.handoff_sweep ~iters m in
      Table.add_row t (m.Cm.name :: List.map (fun (_, v) -> sci v) sweep))
    machines;
  Table.print t;
  print_endline
    "  (the latency/power knob of Section VII: faster spin-wake costs\n\
    \   more power, slower polling converges to BLOCKING latency)"

let run_ablation_faults () =
  let t =
    Table.create
      ~title:
        "Ablation A3: minor page faults, address-space sharing vs POSIX shm"
      ~headers:[ "processes"; "pages"; "sharing"; "shm"; "ratio" ]
      ()
  in
  List.iter
    (fun processes ->
      let r = Ablations.fault_ablation ~processes ~pages:256 Arch.Machines.wallaby in
      Table.add_row t
        [
          string_of_int r.Ablations.processes;
          string_of_int r.Ablations.pages;
          string_of_int r.Ablations.faults_sharing;
          string_of_int r.Ablations.faults_shm;
          Printf.sprintf "%.0fx"
            (float_of_int r.Ablations.faults_shm
            /. float_of_int r.Ablations.faults_sharing);
        ])
    [ 1; 2; 4; 8; 16 ];
  Table.print t;
  print_endline
    "  (Section IV: one shared page table faults once per page in total;\n\
    \   shared memory faults once per page PER PROCESS)"

let run_ablation_mn () =
  let t =
    Table.create ~title:"Ablation A4: N:N vs M:N BLT creation (Section VII)"
      ~headers:
        [ "UCs"; "kernel tasks N:N"; "kernel tasks M:N"; "siblings share pid";
          "N:N pids distinct" ]
      ()
  in
  List.iter
    (fun ucs ->
      let r = Ablations.mn_ablation ~ucs Arch.Machines.wallaby in
      Table.add_row t
        [
          string_of_int r.Ablations.ucs;
          string_of_int r.Ablations.kernel_tasks_nn;
          string_of_int r.Ablations.kernel_tasks_mn;
          string_of_bool r.Ablations.siblings_share_pid;
          string_of_bool r.Ablations.independent_pids_distinct;
        ])
    [ 2; 4; 8 ];
  Table.print t;
  print_endline
    "  (sibling UCs sharing one original KC observe the same kernel state,\n\
    \   like threads of a process, and cut the kernel-resource footprint)"

let run_ablation_blocking () =
  let t =
    Table.create
      ~title:
        "Ablation A6: the blocking-syscall problem (1 ms block among compute \
         ULTs)"
      ~headers:
        [ "machine"; "model"; "compute done [s]"; "all done [s]" ]
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun m ->
      let c = Blocking_demo.compare ~block_time:1e-3 m in
      let row label (r : Blocking_demo.result) =
        Table.add_row t
          [ m.Cm.name; label; sci r.Blocking_demo.compute_done_at;
            sci r.Blocking_demo.elapsed ]
      in
      row "conventional ULT" c.Blocking_demo.ult_result;
      row "BLT (coupled block)" c.Blocking_demo.blt_result)
    machines;
  Table.print t;
  print_endline
    "  (pure ULTs stall behind the blocked scheduler KC; BLTs couple the\n\
    \   blocking call onto the original KC and compute continues -- the\n\
    \   paper's contribution 2)"

let run_ablation_oversub () =
  let t =
    Table.create
      ~title:
        "Ablation A7: over-subscription sweep (Figure 6: NB = NC_prog x (O+1))"
      ~headers:
        [ "machine"; "O"; "ranks"; "KLT [s]"; "ULP [s]"; "speedup";
          "prog util"; "sys util" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun m ->
      List.iter
        (fun (p : Oversub.point) ->
          Table.add_row t
            [
              m.Cm.name;
              string_of_int p.Oversub.oversub;
              string_of_int p.Oversub.nb;
              sci p.Oversub.t_klt;
              sci p.Oversub.t_ulp;
              Printf.sprintf "%.2fx" (Oversub.speedup p);
              Printf.sprintf "%.0f%%" (100.0 *. p.Oversub.prog_core_util);
              Printf.sprintf "%.0f%%" (100.0 *. p.Oversub.syscall_core_util);
            ])
        (Oversub.sweep m))
    machines;
  Table.print t;
  print_endline
    "  (ULP-run core utilizations: over-subscription keeps the program\n\
    \   cores computing while the syscall cores absorb the I/O)"

let run_ablation_sigmask () =
  let t =
    Table.create
      ~title:
        "Ablation A5: fcontext vs ucontext (signal-mask save), Table IV yield"
      ~headers:
        [ "machine"; "fcontext yield"; "ucontext yield"; "signal lands on" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Left ]
      ()
  in
  List.iter
    (fun m ->
      let yield ctx_kind =
        Harness.run ~cost:m ~cores:4 (fun env ->
            let sys =
              Core.Ulp.init ~ctx_kind env.Harness.kernel
                ~root_task:env.Harness.root ~vfs:env.Harness.vfs
            in
            let _sk = Core.Ulp.add_scheduler sys ~cpu:0 in
            let result = ref nan in
            let prog =
              Addrspace.Loader.program ~name:"y" ~globals:[] ~text_size:4096 ()
            in
            let u =
              Core.Ulp.spawn sys ~name:"y" ~cpu:1 ~prog (fun _self ->
                  Core.Ulp.decouple sys;
                  result :=
                    Harness.per_iter env.Harness.kernel ~warmup:16 ~iters:128
                      (fun _ -> Core.Ulp.yield sys))
            in
            ignore (Core.Ulp.join sys ~waiter:env.Harness.root u);
            Core.Ulp.shutdown sys ~by:env.Harness.root;
            !result)
      in
      Table.add_row t
        [
          m.Cm.name;
          sci (yield Core.Blt.Fcontext);
          sci (yield Core.Blt.Ucontext);
          "scheduler KC / original KC";
        ])
    machines;
  Table.print t;
  print_endline
    "  (Section VII: fcontext drops the signal mask -- fast switches but\n\
    \   signals land on the scheduling KC; ucontext restores the mask with\n\
    \   two extra sigprocmask syscalls per switch and delivery follows the\n\
    \   original KC.  Verified behaviourally in test/test_ulp.ml.)"

let run_ablation_nonblock () =
  let t =
    Table.create
      ~title:
        "Ablation A9: blocking reads via couple() vs O_NONBLOCK+yield (paced \
         pipe, 20 messages)"
      ~headers:
        [ "machine"; "consumer"; "elapsed [s]"; "read syscalls"; "wasted" ]
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun m ->
      let c = Nonblock_demo.compare m in
      let row label (r : Nonblock_demo.result) wasted =
        Table.add_row t
          [
            m.Cm.name;
            label;
            sci r.Nonblock_demo.elapsed;
            string_of_int r.Nonblock_demo.read_attempts;
            wasted;
          ]
      in
      row "BLT coupled blocking read" c.Nonblock_demo.blt_result "0";
      row "ULT nonblocking + yield" c.Nonblock_demo.ult_result
        (string_of_int c.Nonblock_demo.wasted_reads))
    machines;
  Table.print t;
  print_endline
    "  (the Background section's alternative: non-blocking I/O also keeps\n\
    \   the ULT scheduler live, but burns an EAGAIN syscall per poll round\n\
    \   -- the \"more programming effort\" comes with a syscall tax too)"

let run_ablation_policy () =
  let t =
    Table.create
      ~title:
        "Ablation A10: user-defined scheduling (SJF) vs FIFO vs kernel \
         round-robin -- mean completion time of a known-size batch"
      ~headers:[ "machine"; "policy"; "mean completion [s]"; "makespan [s]" ]
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun m ->
      let c = Policy_demo.compare m in
      let row label (r : Policy_demo.result) =
        Table.add_row t
          [
            m.Cm.name;
            label;
            sci r.Policy_demo.mean_completion;
            sci r.Policy_demo.max_completion;
          ]
      in
      row "ULT, user SJF" c.Policy_demo.sjf;
      row "ULT, FIFO" c.Policy_demo.fifo;
      row "KLT, kernel RR slices" c.Policy_demo.rr)
    machines;
  Table.print t;
  print_endline
    "  (the Introduction's claim, quantified: only the application knows\n\
    \   the job sizes, so only a user-level scheduler can run\n\
    \   shortest-job-first; the kernel's fair slicing cannot be customized)"

(* ---------------------------------------------------------------- *)
(* Parallel fiber runtime: scaling micro-benchmarks (wall clock)     *)
(* ---------------------------------------------------------------- *)

(* Spawn/join fan-out, recursive fork-join (work_steal_tree), yield
   churn, cross-domain ping-pong, the contended Sync.Mutex counter and
   the lib/proc cost pairs on [Fiber.run_parallel] for 1, 2 and 4
   domains.  Every configuration
   runs [warmup] discarded rounds plus [reps] measured repetitions; the
   table and the JSON report median and p99 wall-clock per config, not
   a single sample.  Results go to BENCH_parallel.json (schema
   ulp-pip/parallel-bench/v4, declared with its --diff gate and its
   validate checks in Report.Bench_file).  Speedup beyond 1.0 needs
   real cores: host_cores is recorded, and the "oversubscribed" flag is
   MEASURED -- true iff the run's median active-worker count exceeded
   the host's cores -- so a domains=4 run whose workers beyond the
   host's cores were never launched is honestly not oversubscribed: it
   time-sliced nothing. *)

module Stats = Sim.Stats
module Json = Report.Json
module Bench_file = Report.Bench_file
module Ss = Fiber_rt.Fiber.Sched_stats

let parallel_domain_counts = [ 1; 2; 4 ]
let host_cores () = Domain.recommended_domain_count ()

let measure ~warmup ~reps run : Bench_file.Parallel.result =
  for _ = 1 to warmup do
    ignore (run ())
  done;
  let rs = List.init reps (fun _ -> run ()) in
  let stat_of f =
    let s = Stats.create () in
    List.iter (fun r -> Stats.add s (f r)) rs;
    s
  in
  let elapsed = stat_of (fun r -> r.Par_workload.elapsed) in
  let tput = stat_of (fun r -> r.Par_workload.throughput) in
  let steals = stat_of (fun r -> float_of_int r.Par_workload.steals) in
  let sched_of f =
    stat_of (fun r ->
        match r.Par_workload.sched with Some s -> f s | None -> 0.0)
  in
  let imed st = int_of_float (Stats.median st +. 0.5) in
  let count f = imed (sched_of (fun s -> float_of_int (f s))) in
  let r0 = List.hd rs in
  let active_workers_p50 = max 1 (count Ss.active_p50) in
  {
    name = r0.Par_workload.name;
    domains = r0.Par_workload.domains;
    items = r0.Par_workload.items;
    reps;
    median_s = Stats.median elapsed;
    p99_s = Stats.percentile elapsed 99.0; (* = max for small rep counts *)
    median_throughput_per_s = Stats.median tput;
    steals = imed steals;
    steal_fail_rate = Stats.median (sched_of Ss.steal_fail_rate);
    parks = count (fun s -> s.Ss.parks);
    wakes = count (fun s -> s.Ss.wakes);
    inj_drains = count (fun s -> s.Ss.inj_drains);
    active_workers_p50;
    oversubscribed = active_workers_p50 > host_cores ();
  }

(* A coupled_busy row: an untimed warm-up run, then [calls] round
   trips alone and [calls] beside one busy fiber, then the host-stall
   probe, so a p99 over the bound reads as host or runtime. *)
let measure_coupled ~domains ~calls : Bench_file.Parallel.coupled =
  let stats ~busy =
    let s = Stats.create () in
    Array.iter (Stats.add s)
      (Par_workload.coupled_latencies ~domains ~busy ~calls);
    s
  in
  ignore (stats ~busy:1);
  let idle = stats ~busy:0 and busy = stats ~busy:1 in
  let stalls =
    Par_workload.host_stalls ~seconds:Bench_file.Parallel.stall_probe_s
      ~min_gap:Bench_file.Parallel.stall_min_s
  in
  {
    domains;
    calls;
    idle_p50_s = Stats.median idle;
    p50_s = Stats.median busy;
    p99_s = Stats.percentile busy 99.0;
    max_s = Stats.max_value busy;
    host_stalls_per_s =
      float_of_int (Array.length stalls) /. Bench_file.Parallel.stall_probe_s;
    host_stall_max_s = Array.fold_left Float.max 0.0 stalls;
  }

(* Diff BEFORE writing -- the old file is usually this same path, and
   reading it after the write would compare the run to itself -- and
   gate AFTER, so a regressed run still leaves a fresh file to inspect. *)
let write_bench suite ~diff doc =
  let verdict =
    match diff with
    | None -> Bench_file.Pass
    | Some old_file -> (
        match
          Result.bind (Json.parse_file old_file) (fun old ->
              Bench_file.diff suite ~cores:(host_cores ()) ~old doc)
        with
        | Ok v -> v
        | Error msg ->
            Printf.eprintf "--diff %s: %s\n" old_file msg;
            exit 2)
  in
  Json.write_file (Bench_file.file suite) doc;
  Printf.printf "  wrote %s\n" (Bench_file.file suite);
  match verdict with
  | Bench_file.Pass -> ()
  | Warn l ->
      List.iter (Printf.eprintf "  regression (1-core host, warning): %s\n") l
  | Regressed l ->
      List.iter (Printf.eprintf "  regression: %s\n") l;
      exit 3

(* the CI gates: print every violation, exit 1 if there is one *)
let validate suite () =
  let file = Bench_file.file suite in
  match Result.bind (Json.parse_file file) (Bench_file.validate suite) with
  | Ok summary -> print_endline summary
  | Error msg ->
      List.iter (Printf.eprintf "%s: %s\n" file) (String.split_on_char '\n' msg);
      exit 1

let run_parallel_bench ~quick ~diff () =
  let fibers = if quick then 2_000 else 20_000 in
  let work = if quick then 250 else 1_000 in
  let depth = if quick then 9 else 12 (* 1023 / 8191 tree nodes *) in
  let tree_work = if quick then 200 else 400 in
  let yields = if quick then 50 else 200 in
  let yfibers = if quick then 20 else 100 in
  let msgs = if quick then 2_000 else 20_000 in
  let sfibers = if quick then 8 else 16 in
  let siters = if quick then 1_000 else 4_000 in
  (* proc rows: spawn cost and fd-table indirection at 1k (quick) to
     10k (full) CONCURRENT ULPs.  [rounds] repeats the spawn-and-reap
     pass so the bare-fiber baseline row clears timer noise; [fd_writes]
     is sized so the write path, not ULP setup, dominates the fd pair *)
  let ulps = if quick then 1_000 else 10_000 in
  let spawn_rounds = if quick then 8 else 2 in
  let fd_writes = 50 in
  let warmup = 1 in
  let reps = if quick then 3 else 5 in
  let stats =
    List.concat_map
      (fun (mk : domains:int -> Par_workload.result) ->
        List.map
          (fun domains -> measure ~warmup ~reps (fun () -> mk ~domains))
          parallel_domain_counts)
      [
        (fun ~domains -> Par_workload.spawn_join ~domains ~fibers ~work);
        (fun ~domains ->
          Par_workload.work_steal_tree ~domains ~depth ~work:tree_work);
        (fun ~domains ->
          Par_workload.yield_storm ~domains ~fibers:yfibers ~yields);
        (fun ~domains -> Par_workload.ping_pong ~domains ~msgs);
        (fun ~domains ->
          Par_workload.sync_mutex ~domains ~fibers:sfibers ~iters:siters);
        (* lib/proc cost pairs: ULP spawn+reap vs bare fibers, and
           1-byte writes through the private fd table (one shared
           /dev/null handle refcounted into every ULP's namespace) vs
           bare Fiber_io on the host fd *)
        (fun ~domains ->
          Proc_workload.ulp_spawn ~domains ~ulps ~rounds:spawn_rounds);
        (fun ~domains ->
          Proc_workload.ulp_spawn_fiber_base ~domains ~ulps
            ~rounds:spawn_rounds);
        (fun ~domains ->
          Proc_workload.fd_indirection ~domains ~ulps ~writes:fd_writes);
        (fun ~domains ->
          Proc_workload.fd_direct ~domains ~ulps ~writes:fd_writes);
      ]
  in
  (* the coupled round trip beside a busy fiber, at one and two
     workers: the KC must not wait for its worker's runtime lock *)
  let coupled =
    let calls = Bench_file.Parallel.coupled_calls * if quick then 1 else 2 in
    List.map (fun domains -> measure_coupled ~domains ~calls) [ 1; 2 ]
  in
  let doc =
    Bench_file.Parallel.doc ~host_cores:(host_cores ()) ~quick ~warmup stats
      coupled
  in
  Printf.printf "Parallel fiber runtime: host has %d core%s; %d warmup + %d \
                 reps per config\n"
    (host_cores ())
    (if host_cores () = 1 then "" else "s")
    warmup reps;
  Bench_file.print_rows Bench_file.Parallel.suite doc;
  print_endline
    "  (per-worker overflow FIFO for yields, steal-half batches, lock-free\n\
    \   join, targeted one-worker wake-ups -- the Section VII M:N extension\n\
    \   on real cores.  Speedup > 1 requires a multicore host; the oversub\n\
    \   flag is measured -- active_workers_p50 > host_cores -- so a run\n\
    \   that never launched its excess domains reads '-' even when more\n\
    \   domains were requested than cores exist)";
  write_bench Bench_file.Parallel.suite ~diff doc

(* ---------------------------------------------------------------- *)
(* Net stack: echo load generator over real localhost sockets        *)
(* ---------------------------------------------------------------- *)

(* An in-process echo benchmark on lib/net: one Tcp_server and N client
   fibers per sweep point, all on [Fiber.run_parallel] with one
   reactor multiplexing every socket (an idle worker waits in its
   poller).  Each client connects and
   does one untimed echo -- so the server has accepted it and its
   handler is live -- then rendezvous on a Completion latch, so the
   request phase measures steady-state RTTs, not connection setup or
   accept backlog; each request is a 64-byte write + exact echo read,
   timed individually on the client side.

   The full sweep climbs to 10000 concurrent connections, every one of
   them busy; then the idle-heavy row holds 10000 connections open
   while only 100 of them send, the case an O(ready) poller exists
   for.  The one poller is edge-triggered epoll.

   RLIMIT_NOFILE is raised up front and the fd count must return to its
   baseline after the run -- [validate-net] gates on that, so a leaked
   socket fails CI.  Results go to BENCH_net.json (schema
   ulp-pip/net-bench/v3, declared in Report.Bench_file). *)

module Net_reactor = Net.Reactor
module Net_io = Net.Fiber_io
module Net_tcp = Net.Tcp_server

let net_msg_bytes = 64

let count_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let net_echo_handler r (c : Net_tcp.conn) =
  let buf = Bytes.create net_msg_bytes in
  let rec loop () =
    match Net_io.read r c.Net_tcp.fd buf 0 net_msg_bytes with
    | 0 -> ()
    | n ->
        Net_io.write_all r c.Net_tcp.fd buf 0 n;
        loop ()
  in
  loop ()

(* The client herd (fiber context): [conns] clients connect and echo
   once, rendezvous on a Completion latch, then the first [active] of
   them fire [reqs] echo roundtrips each while the rest hold their
   connections open, idle, until the timed phase ends.  Per-request
   RTTs feed the percentile stats.  Shared between the in-process
   sweep and the [net-client] subprocess (below), so both modes
   measure exactly the same workload.  Returns
   (requests, elapsed_s, p50_s, p99_s, max_s). *)
let net_run_clients r ~port ~conns ~active ~reqs =
  let module Fiber = Fiber_rt.Fiber in
  let module Completion = Fiber_rt.Completion in
  let connected = Atomic.make 0 in
  let all_connected = Completion.create () in
  let go = Completion.create () and timed_done = Completion.create () in
  let await c = Fiber.suspend (fun wake -> Completion.add_joiner c wake) in
  let lat = Sim.Stats.create () in
  let lat_lock = Mutex.create () in
  let done_reqs = Atomic.make 0 in
  let client i () =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    Net_io.connect r fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let msg = Bytes.init net_msg_bytes (fun j -> Char.chr ((i + j) land 0xff)) in
    let echo = Bytes.create net_msg_bytes in
    (* connect returns once the kernel queues the handshake; one untimed
       echo proves the server accepted this connection *)
    Net_io.write_all r fd msg 0 net_msg_bytes;
    Net_io.read_exact r fd echo 0 net_msg_bytes;
    if Atomic.fetch_and_add connected 1 + 1 = conns then
      Completion.finish all_connected ();
    await go;
    if i < active then begin
      let rtts = Array.make reqs 0.0 in
      for k = 0 to reqs - 1 do
        let t0 = Fiber_rt.Clock.now () in
        Net_io.write_all r fd msg 0 net_msg_bytes;
        Net_io.read_exact r fd echo 0 net_msg_bytes;
        rtts.(k) <- Fiber_rt.Clock.now () -. t0;
        if not (Bytes.equal msg echo) then failwith "echo corrupted"
      done;
      (* ulplint: allow raw-mutex-in-fiber -- Sim.Stats sink shared across worker domains; short hold, never parks while held *)
      Mutex.lock lat_lock;
      Array.iter (Sim.Stats.add lat) rtts;
      Mutex.unlock lat_lock;
      Atomic.fetch_and_add done_reqs reqs |> ignore
    end
    else await timed_done;
    Net_io.close fd
  in
  let clients = List.init conns (fun i -> Fiber.spawn (client i)) in
  let join_if p = List.iteri (fun i f -> if p i then Fiber.join f) clients in
  await all_connected;
  (* every connection is live: start the clock and release the herd *)
  let t0 = Fiber_rt.Clock.now () in
  Completion.finish go ();
  join_if (fun i -> i < active);
  let elapsed = Fiber_rt.Clock.now () -. t0 in
  Completion.finish timed_done ();
  join_if (fun i -> i >= active);
  ( Atomic.get done_reqs,
    elapsed,
    Sim.Stats.percentile lat 50.0,
    Sim.Stats.percentile lat 99.0,
    Sim.Stats.max_value lat )

(* The [net-client] hidden subcommand: the whole client herd in its own
   process, with its own RLIMIT_NOFILE budget.  The parent spawns this
   when 2 fds/connection would not fit under its (unraisable) hard
   limit -- each side of the bench then only needs 1 fd/connection.
   Prints [requests, elapsed, p50, p99, max] as one JSON list on stdout
   and exits 0. *)
let run_net_client ~port ~conns ~active ~reqs () =
  ignore (Net.Poller.raise_nofile (conns + 1024));
  let r = Net_reactor.create () in
  let result = ref (0, 0.0, 0.0, 0.0, 0.0) in
  Fiber_rt.Fiber.run_parallel (fun () ->
      result := net_run_clients r ~port ~conns ~active ~reqs);
  Net_reactor.shutdown r;
  let requests, elapsed, p50, p99, mx = !result in
  print_string
    (Json.print
       (Json.List
          (List.map (fun f -> Json.Num f)
             [ float_of_int requests; elapsed; p50; p99; mx ])))

(* Run the herd in a [net-client] subprocess (fiber context): the
   parent keeps serving echoes while a fiber drains the child's stdout
   through the reactor; EOF means the child is done. *)
let net_spawn_client r ~port ~conns ~active ~reqs =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [|
        exe; "net-client"; "--port"; string_of_int port; "--conns";
        string_of_int conns; "--active"; string_of_int active; "--reqs";
        string_of_int reqs;
      |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  Unix.set_nonblock out_r;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Net_io.read r out_r chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  Net_io.close out_r;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "net bench: client subprocess failed");
  match Json.parse (Buffer.contents buf) with
  | Json.List [ Num requests; Num elapsed; Num p50; Num p99; Num mx ] ->
      (int_of_float requests, elapsed, p50, p99, mx)
  | _ -> failwith "net bench: bad client result"

(* One sweep point: start a server, run the herd ([`Subproc]: in a
   child process -- see [net_spawn_client]), collect the row. *)
let net_sweep_point r ~mode ~conns ~active ~reqs =
  let srv =
    Net_tcp.start ~reactor:r ~backlog:1024
      ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
      ~handler:net_echo_handler ()
  in
  let port = Net_tcp.port srv in
  let requests, elapsed, p50, p99, mx =
    match mode with
    | `InProc -> net_run_clients r ~port ~conns ~active ~reqs
    | `Subproc -> net_spawn_client r ~port ~conns ~active ~reqs
  in
  Net_tcp.stop srv;
  let st = Net_tcp.stats srv in
  if st.Net_tcp.accepted < conns then
    failwith
      (Printf.sprintf "net bench: accepted %d of %d connections"
         st.Net_tcp.accepted conns);
  {
    Bench_file.Net.connections = conns;
    active;
    reqs_per_conn = reqs;
    requests;
    elapsed_s = elapsed;
    p50_s = p50;
    p99_s = p99;
    max_s = mx;
    accepted = st.Net_tcp.accepted;
    max_active = st.Net_tcp.max_active;
  }

let run_net_bench ~quick ~diff () =
  (* (connections, active clients): the busy sweep, then the idle-heavy
     row -- ten times the last busy point's connections open, one in a
     hundred of them sending *)
  let busy = if quick then [ 100; 1000 ] else [ 64; 256; 1000; 4000; 10000 ] in
  let idle = if quick then (1000, 10) else (10000, 100) in
  let reqs = if quick then 5 else 20 in
  (* ~2 fds per connection, both ends in this process, plus slack *)
  let achieved = Net.Poller.raise_nofile (if quick then 8192 else 25000) in
  (* Per-point mode: both ends in-process while 2 fds/connection fit the
     budget; past that, the herd moves to a [net-client] subprocess with
     its own fd budget (1 fd/connection on each side).  Only truly
     over-budget points get clamped. *)
  let mode_for conns =
    if achieved <= 0 || (2 * conns) + 512 <= achieved then `InProc
    else `Subproc
  in
  let sweep = List.map (fun c -> (c, c)) busy @ [ idle ] in
  let sweep =
    if achieved > 0 then begin
      (* subprocess mode leaves ~1 fd per connection on each side, so a
         point is only infeasible when the server half alone (plus
         reactor/listener slack) would bust the budget *)
      let cap = max 64 (achieved - 512) in
      if cap < List.fold_left (fun m (c, _) -> max m c) 0 sweep then
        Printf.eprintf
          "warning: RLIMIT_NOFILE only %d; capping the sweep at %d \
           connections\n"
          achieved cap;
      List.fold_left
        (fun acc (c, a) ->
          let p = (min c cap, min a cap) in
          if List.mem p acc then acc else acc @ [ p ])
        [] sweep
    end
    else sweep
  in
  let fd_baseline = count_fds () in
  (* One reactor (no thread: the run's idle workers take turns waiting
     in its poller) for the whole sweep. *)
  let r = Net_reactor.create () in
  let points = ref [] in
  Fiber_rt.Fiber.run_parallel (fun () ->
      points :=
        List.map
          (fun (conns, active) ->
            net_sweep_point r ~mode:(mode_for conns) ~conns ~active ~reqs)
          sweep);
  Net_reactor.shutdown r;
  let fd_after = count_fds () in
  let doc =
    Bench_file.Net.doc ~host_cores:(host_cores ()) ~quick
      ~backend:"epoll" ~msg_bytes:net_msg_bytes
      ~fd_baseline ~fd_after !points
  in
  Printf.printf "Net echo bench: %d-byte messages, %d reqs/conn\n"
    net_msg_bytes reqs;
  Bench_file.print_rows Bench_file.Net.suite doc;
  print_endline
    "  (every socket is multiplexed by one poller, which an idle worker\n\
    \   waits in; a worker with fibers to run never blocks in the kernel\n\
    \   -- DESIGN.md sections 5c, 5e)";
  write_bench Bench_file.Net.suite ~diff doc

(* ---------------------------------------------------------------- *)
(* main                                                              *)
(* ---------------------------------------------------------------- *)

let experiments =
  [
    ("table3", run_table3);
    ("table4", run_table4);
    ("table5", run_table5);
    ("figure7", run_figure7);
    ("figure8", run_figure8);
    ("ablation-tls", run_ablation_tls);
    ("ablation-idle", run_ablation_idle);
    ("ablation-faults", run_ablation_faults);
    ("ablation-mn", run_ablation_mn);
    ("ablation-sigmask", run_ablation_sigmask);
    ("ablation-blocking", run_ablation_blocking);
    ("ablation-oversub", run_ablation_oversub);
    ("ablation-nonblock", run_ablation_nonblock);
    ("ablation-policy", run_ablation_policy);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --quick shrinks the parallel workloads for CI smoke runs;
     --diff FILE prints a regression table against an older
     BENCH_parallel.json / BENCH_net.json after the matching target
     runs *)
  let quick = List.mem "--quick" args in
  let rec extract_opt key acc = function
    | k :: v :: rest when k = key -> (Some v, List.rev_append acc rest)
    | [ k ] when k = key ->
        Printf.eprintf "%s needs an argument\n" key;
        exit 2
    | a :: rest -> extract_opt key (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  (* hidden subcommand: the net bench's out-of-process client herd *)
  (match args with
  | "net-client" :: rest ->
      let want key rest =
        let v, rest = extract_opt key [] rest in
        match Option.bind v int_of_string_opt with
        | Some n when n >= 0 -> (n, rest)
        | _ ->
            Printf.eprintf "net-client: missing/bad %s\n" key;
            exit 2
      in
      let port, rest = want "--port" rest in
      let conns, rest = want "--conns" rest in
      let active, rest = want "--active" rest in
      let reqs, _ = want "--reqs" rest in
      run_net_client ~port ~conns ~active ~reqs ();
      exit 0
  | _ -> ());
  let diff, args = extract_opt "--diff" [] args in
  let names = List.filter (fun a -> a <> "--quick") args in
  let experiments =
    experiments
    @ [
        ("parallel", run_parallel_bench ~quick ~diff);
        ("net", run_net_bench ~quick ~diff);
      ]
  in
  (* the validate targets are CI gates, only run by name -- never part
     of "all" *)
  let by_name =
    experiments
    @ [
        ("validate", validate Bench_file.Parallel.suite);
        ("validate-net", validate Bench_file.Net.suite);
      ]
  in
  let requested =
    match names with [] -> List.map fst experiments | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name by_name with
      | Some f ->
          f ();
          print_newline ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat ", " (List.map fst by_name));
          exit 2)
    requested
