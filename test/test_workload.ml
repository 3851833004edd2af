(* The reproduction gate: composite simulation results must land on the
   paper's Tables III-V within tolerance, and the Figure 7/8 *shapes*
   (who wins, where the crossover falls) must hold.  These tests are the
   executable form of EXPERIMENTS.md. *)

open Oskernel
module Mb = Workload.Microbench
module Owc = Workload.Owc
module Ov = Workload.Overlap
module Ab = Workload.Ablations

let wallaby = Arch.Machines.wallaby
let albireo = Arch.Machines.albireo

let iters = 128

let within pct expected actual =
  Float.abs (actual -. expected) /. expected <= pct /. 100.0

let check_within name pct expected actual =
  if not (within pct expected actual) then
    Alcotest.failf "%s: expected %.3e +/- %g%%, got %.3e" name expected pct
      actual

(* ---------- Table III ---------- *)

let test_table3_wallaby () =
  let t = Mb.table3 ~iters wallaby in
  check_within "ctx switch" 1.0 3.34e-8 t.Mb.ctx_switch;
  check_within "tls load" 1.0 1.09e-7 t.Mb.tls_load;
  Alcotest.(check int) "context bytes" 64 t.Mb.ctx_size

let test_table3_albireo () =
  let t = Mb.table3 ~iters albireo in
  check_within "ctx switch" 1.0 2.45e-8 t.Mb.ctx_switch;
  check_within "tls load" 1.0 2.5e-9 t.Mb.tls_load;
  Alcotest.(check int) "context bytes" 88 t.Mb.ctx_size

(* ---------- Table IV ---------- *)

let test_table4_wallaby () =
  let t = Mb.table4 ~iters wallaby in
  check_within "ULP yield" 5.0 1.50e-7 t.Mb.ulp_yield;
  check_within "sched_yield 1 core" 5.0 2.66e-7 t.Mb.sched_yield_1core;
  check_within "sched_yield 2 cores" 5.0 7.79e-8 t.Mb.sched_yield_2cores

let test_table4_albireo () =
  let t = Mb.table4 ~iters albireo in
  check_within "ULP yield" 5.0 1.20e-7 t.Mb.ulp_yield;
  check_within "sched_yield 1 core" 5.0 1.22e-6 t.Mb.sched_yield_1core;
  check_within "sched_yield 2 cores" 5.0 3.48e-7 t.Mb.sched_yield_2cores

(* Paper shape: ULP yield beats 1-core sched_yield on both machines but
   loses to 2-core sched_yield only on x86_64 (the TLS syscall). *)
let test_table4_shape () =
  let w = Mb.table4 ~iters wallaby and a = Mb.table4 ~iters albireo in
  Alcotest.(check bool) "wallaby: ULP < 1-core KLT" true
    (w.Mb.ulp_yield < w.Mb.sched_yield_1core);
  Alcotest.(check bool) "wallaby: 2-core KLT < ULP (TLS tax)" true
    (w.Mb.sched_yield_2cores < w.Mb.ulp_yield);
  Alcotest.(check bool) "albireo: ULP < 1-core KLT" true
    (a.Mb.ulp_yield < a.Mb.sched_yield_1core);
  Alcotest.(check bool) "albireo: ULP < 2-core KLT too" true
    (a.Mb.ulp_yield < a.Mb.sched_yield_2cores)

(* ---------- Table V ---------- *)

let test_table5_wallaby () =
  let t = Mb.table5 ~iters wallaby in
  check_within "plain getpid" 2.0 6.71e-8 t.Mb.linux;
  check_within "BUSYWAIT" 8.0 1.33e-6 t.Mb.busywait;
  check_within "BLOCKING" 8.0 2.91e-6 t.Mb.blocking

let test_table5_albireo () =
  let t = Mb.table5 ~iters albireo in
  check_within "plain getpid" 2.0 3.85e-7 t.Mb.linux;
  check_within "BUSYWAIT" 8.0 2.71e-6 t.Mb.busywait;
  check_within "BLOCKING" 8.0 4.48e-6 t.Mb.blocking

let test_table5_shape () =
  List.iter
    (fun cost ->
      let t = Mb.table5 ~iters cost in
      Alcotest.(check bool) "busywait < blocking" true
        (t.Mb.busywait < t.Mb.blocking);
      Alcotest.(check bool) "couple/decouple adds microseconds" true
        (t.Mb.busywait > 5.0 *. t.Mb.linux && t.Mb.busywait -. t.Mb.linux > 1e-6))
    [ wallaby; albireo ]

(* ---------- Figure 7 shapes ---------- *)

let f7_sizes = [ 1; 1024; 16384; 32768; 65536; 1048576 ]
let f7 cost = Owc.figure7 ~iters:48 ~sizes:f7_sizes cost

let test_figure7_wallaby_ulp_wins_everywhere () =
  List.iter
    (fun (p : Owc.f7_point) ->
      let sd = Owc.slowdown p in
      Alcotest.(check bool)
        (Printf.sprintf "busywait < both AIO at %d" p.Owc.bytes)
        true
        (sd p.Owc.t_ulp_busywait < sd p.Owc.t_aio_return
        && sd p.Owc.t_ulp_busywait < sd p.Owc.t_aio_suspend);
      Alcotest.(check bool)
        (Printf.sprintf "blocking <= both AIO at %d" p.Owc.bytes)
        true
        (sd p.Owc.t_ulp_blocking <= sd p.Owc.t_aio_return +. 1e-9
        && sd p.Owc.t_ulp_blocking <= sd p.Owc.t_aio_suspend +. 1e-9))
    (f7 wallaby)

let test_figure7_wallaby_decays_toward_one () =
  let points = f7 wallaby in
  let first = List.hd points and last = List.nth points (List.length points - 1) in
  let sd_first = Owc.slowdown first first.Owc.t_ulp_busywait in
  let sd_last = Owc.slowdown last last.Owc.t_ulp_busywait in
  Alcotest.(check bool) "small-buffer slowdown is real" true (sd_first > 1.3);
  Alcotest.(check bool) "1MiB slowdown near 1" true (sd_last < 1.05)

let test_figure7_albireo_crossover_at_32k () =
  (* busy-wait beats AIO below 32KiB; AIO-return wins at and above 64KiB *)
  let points = f7 albireo in
  List.iter
    (fun (p : Owc.f7_point) ->
      let sd = Owc.slowdown p in
      if p.Owc.bytes <= 16384 then
        Alcotest.(check bool)
          (Printf.sprintf "busywait wins at %d" p.Owc.bytes)
          true
          (sd p.Owc.t_ulp_busywait < sd p.Owc.t_aio_return)
      else if p.Owc.bytes >= 65536 then
        Alcotest.(check bool)
          (Printf.sprintf "AIO-return wins at %d" p.Owc.bytes)
          true
          (sd p.Owc.t_aio_return < sd p.Owc.t_ulp_busywait))
    points

let test_figure7_albireo_ulp_does_not_decay () =
  (* "the larger the buffer, the lower the slowdown ... can only be seen
     on the Wallaby cases": Albireo's ULP curves plateau well above 1 *)
  let points = f7 albireo in
  let last = List.nth points (List.length points - 1) in
  Alcotest.(check bool) "1MiB ULP slowdown stays >= 1.08" true
    (Owc.slowdown last last.Owc.t_ulp_busywait >= 1.08)

let test_figure7_blocking_never_beats_busywait () =
  List.iter
    (fun cost ->
      List.iter
        (fun (p : Owc.f7_point) ->
          Alcotest.(check bool) "busywait <= blocking" true
            (p.Owc.t_ulp_busywait <= p.Owc.t_ulp_blocking +. 1e-12))
        (f7 cost))
    [ wallaby; albireo ]

(* ---------- Figure 8 shapes ---------- *)

let f8_sizes = [ 1; 1024; 16384 ]

let test_figure8_shapes () =
  List.iter
    (fun (cost, ulp_floor) ->
      let points = Ov.figure8 ~iters:48 ~sizes:f8_sizes cost in
      List.iter
        (fun (p : Ov.f8_point) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: ULP busywait > %g%% at %d"
               cost.Arch.Cost_model.name ulp_floor p.Ov.bytes)
            true
            (p.Ov.ulp_busywait > ulp_floor);
          Alcotest.(check bool)
            (Printf.sprintf "%s: AIO < 70%% at %d" cost.Arch.Cost_model.name
               p.Ov.bytes)
            true
            (p.Ov.aio_return < 70.0 && p.Ov.aio_suspend < 70.0);
          Alcotest.(check bool)
            (Printf.sprintf "%s: ULP beats AIO at %d" cost.Arch.Cost_model.name
               p.Ov.bytes)
            true
            (p.Ov.ulp_busywait > p.Ov.aio_return
            && p.Ov.ulp_blocking > p.Ov.aio_suspend))
        points)
    [ (wallaby, 70.0); (albireo, 80.0) ]

let test_overlap_formula () =
  Alcotest.(check (float 1e-9)) "perfect overlap" 100.0
    (Ov.percent ~t_pure:1.0 ~t_cpu:1.0 ~t_ovrl:1.0);
  Alcotest.(check (float 1e-9)) "no overlap" 0.0
    (Ov.percent ~t_pure:1.0 ~t_cpu:1.0 ~t_ovrl:2.0);
  Alcotest.(check (float 1e-9)) "half overlap" 50.0
    (Ov.percent ~t_pure:1.0 ~t_cpu:1.0 ~t_ovrl:1.5);
  Alcotest.(check (float 1e-9)) "clamped above" 100.0
    (Ov.percent ~t_pure:1.0 ~t_cpu:1.0 ~t_ovrl:0.5);
  Alcotest.(check (float 1e-9)) "clamped below" 0.0
    (Ov.percent ~t_pure:1.0 ~t_cpu:1.0 ~t_ovrl:5.0);
  Alcotest.(check (float 1e-9)) "degenerate zero" 0.0
    (Ov.percent ~t_pure:0.0 ~t_cpu:1.0 ~t_ovrl:1.0)

(* ---------- ablations ---------- *)

let test_a1_tls_ablation () =
  let r = Ab.tls_ablation ~iters wallaby in
  (* without the arch_prctl cost, the ULP yield drops by exactly the TLS
     load; it then beats even 2-core sched_yield *)
  Alcotest.(check bool) "faster without TLS" true
    (r.Ab.without_tls < r.Ab.with_tls);
  check_within "difference is the TLS load" 10.0 1.09e-7
    (r.Ab.with_tls -. r.Ab.without_tls);
  Alcotest.(check bool) "beats 2-core sched_yield without TLS" true
    (r.Ab.without_tls < 7.79e-8)

let test_a2_handoff_sweep_monotone () =
  let sweep = Ab.handoff_sweep ~iters:64 wallaby in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-12 && monotone rest
    | _ -> true
  in
  Alcotest.(check int) "five points" 5 (List.length sweep);
  Alcotest.(check bool) "latency rises with handoff cost" true (monotone sweep)

let test_a4_mn_ablation () =
  let r = Ab.mn_ablation ~ucs:6 wallaby in
  Alcotest.(check bool) "M:N uses fewer kernel tasks" true
    (r.Ab.kernel_tasks_mn < r.Ab.kernel_tasks_nn);
  Alcotest.(check bool) "siblings share one pid" true r.Ab.siblings_share_pid;
  Alcotest.(check bool) "independent BLTs have distinct pids" true
    r.Ab.independent_pids_distinct

(* ---------- blocking-syscall problem (Background section) ---------- *)

let test_blocking_ult_stalls_scheduler () =
  (* pure ULT: the whole scheduler stalls for the blocking call, so the
     compute threads cannot finish before it returns *)
  let r = Workload.Blocking_demo.ult ~block_time:1e-3 wallaby in
  Alcotest.(check bool)
    (Printf.sprintf "compute delayed past the block (%.2e)"
       r.Workload.Blocking_demo.compute_done_at)
    true
    (r.Workload.Blocking_demo.compute_done_at >= 1e-3)

let test_blocking_blt_hides_the_block () =
  (* BLT: the blocking call couples away; compute finishes in its own
     time, far before the 1 ms block *)
  let r = Workload.Blocking_demo.blt ~block_time:1e-3 wallaby in
  Alcotest.(check bool)
    (Printf.sprintf "compute unaffected (%.2e)"
       r.Workload.Blocking_demo.compute_done_at)
    true
    (r.Workload.Blocking_demo.compute_done_at < 5e-4);
  Alcotest.(check bool) "total bounded by the block + epsilon" true
    (r.Workload.Blocking_demo.elapsed < 1.2e-3)

let test_blocking_comparison_factor () =
  let c = Workload.Blocking_demo.compare ~block_time:1e-3 wallaby in
  Alcotest.(check bool)
    (Printf.sprintf "BLT unstalls computes by > 2x (got %.1fx)"
       c.Workload.Blocking_demo.stall_factor)
    true
    (c.Workload.Blocking_demo.stall_factor > 2.0)

(* ---------- over-subscription sweep (Figure 6 equations) ---------- *)

let test_oversub_equations () =
  let cfg = Workload.Oversub.default_config in
  Alcotest.(check int) "NB = NC_prog x (O+1)"
    (cfg.Workload.Oversub.nc_prog * (cfg.Workload.Oversub.oversub + 1))
    (Workload.Oversub.ranks cfg)

let test_oversub_ulp_wins_with_oversubscription () =
  let points = Workload.Oversub.sweep ~factors:[ 1 ] wallaby in
  List.iter
    (fun (p : Workload.Oversub.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "speedup at O=%d is > 1 (got %.2f)" p.Workload.Oversub.oversub
           (Workload.Oversub.speedup p))
        true
        (Workload.Oversub.speedup p > 1.0))
    points

(* ---------- non-blocking alternative (ablation A9) ---------- *)

let test_nonblock_blt_reads_exactly_once_per_message () =
  let r = Workload.Nonblock_demo.blt ~messages:10 wallaby in
  (* one read per message, plus at most one EOF probe *)
  Alcotest.(check bool) "no polling storm" true
    (r.Workload.Nonblock_demo.read_attempts <= 11);
  Alcotest.(check bool) "compute progressed" true
    (r.Workload.Nonblock_demo.compute_rounds > 0)

let test_nonblock_ult_burns_eagain_rounds () =
  let c = Workload.Nonblock_demo.compare ~messages:10 wallaby in
  Alcotest.(check bool)
    (Printf.sprintf "nonblocking wasted many reads (%d)"
       c.Workload.Nonblock_demo.wasted_reads)
    true
    (c.Workload.Nonblock_demo.wasted_reads
    > 3 * c.Workload.Nonblock_demo.ult_result.Workload.Nonblock_demo.messages);
  (* both keep the scheduler live: similar completion times *)
  let b = c.Workload.Nonblock_demo.blt_result.Workload.Nonblock_demo.elapsed in
  let u = c.Workload.Nonblock_demo.ult_result.Workload.Nonblock_demo.elapsed in
  Alcotest.(check bool)
    (Printf.sprintf "elapsed comparable (%.2e vs %.2e)" b u)
    true
    (Float.abs (b -. u) /. b < 0.25)

(* ---------- fcontext vs ucontext (ablation A5) ---------- *)

let test_ucontext_switch_costs_more () =
  Workload.Harness.run ~cost:wallaby (fun env ->
      let fc = Core.Blt.init ~ctx_kind:Core.Blt.Fcontext env.Workload.Harness.kernel in
      let uc = Core.Blt.init ~ctx_kind:Core.Blt.Ucontext env.Workload.Harness.kernel in
      Alcotest.(check bool) "sigmask save/restore adds cost" true
        (Core.Blt.swap_cost uc > Core.Blt.swap_cost fc);
      let expected =
        Core.Blt.swap_cost fc +. (2.0 *. wallaby.Arch.Cost_model.syscall_entry)
      in
      Alcotest.(check bool) "exactly two sigprocmask syscalls" true
        (Float.abs (Core.Blt.swap_cost uc -. expected) < 1e-15))

(* ---------- scheduling policies (ablation A10) ---------- *)

let test_policy_sjf_minimizes_mean_completion () =
  let c = Workload.Policy_demo.compare wallaby in
  Alcotest.(check bool) "SJF < FIFO" true
    (c.Workload.Policy_demo.sjf.Workload.Policy_demo.mean_completion
    < c.Workload.Policy_demo.fifo.Workload.Policy_demo.mean_completion);
  Alcotest.(check bool) "SJF < kernel RR" true
    (c.Workload.Policy_demo.sjf.Workload.Policy_demo.mean_completion
    < c.Workload.Policy_demo.rr.Workload.Policy_demo.mean_completion);
  (* total work is the same, so the makespans are comparable *)
  let span (r : Workload.Policy_demo.result) =
    r.Workload.Policy_demo.max_completion
  in
  Alcotest.(check bool) "similar makespans" true
    (Float.abs (span c.Workload.Policy_demo.sjf -. span c.Workload.Policy_demo.rr)
     /. span c.Workload.Policy_demo.rr
    < 0.05)

let test_policy_sjf_order_is_by_size () =
  (* SJF must beat FIFO fed in the worst (descending-size) order by a
     wide margin: the long job no longer delays everyone *)
  let sizes = [ 4e-4; 3e-4; 2e-4; 1e-4 ] (* descending arrival *) in
  let sjf = Workload.Policy_demo.ult ~sizes ~policy:`Sjf wallaby in
  let fifo = Workload.Policy_demo.ult ~sizes ~policy:`Fifo wallaby in
  Alcotest.(check bool)
    (Printf.sprintf "SJF (%.2e) well under descending FIFO (%.2e)"
       sjf.Workload.Policy_demo.mean_completion
       fifo.Workload.Policy_demo.mean_completion)
    true
    (sjf.Workload.Policy_demo.mean_completion
    < 0.8 *. fifo.Workload.Policy_demo.mean_completion)

(* ---------- determinism ---------- *)

let test_experiments_are_deterministic () =
  let a = Mb.getpid_ulp_time ~iters:64 ~policy:Sync.Waitcell.Busywait wallaby in
  let b = Mb.getpid_ulp_time ~iters:64 ~policy:Sync.Waitcell.Busywait wallaby in
  Alcotest.(check (float 0.0)) "bit-identical reruns" a b

let prop_owc_plain_monotone_in_size =
  QCheck.Test.make ~name:"plain owc time grows with buffer size" ~count:8
    QCheck.(pair (int_range 1 65536) (int_range 1 65536))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Owc.plain_time ~iters:16 ~bytes:lo wallaby
      <= Owc.plain_time ~iters:16 ~bytes:hi wallaby +. 1e-12)

let () =
  Alcotest.run "workload"
    [
      ( "table3",
        [
          Alcotest.test_case "wallaby" `Quick test_table3_wallaby;
          Alcotest.test_case "albireo" `Quick test_table3_albireo;
        ] );
      ( "table4",
        [
          Alcotest.test_case "wallaby" `Quick test_table4_wallaby;
          Alcotest.test_case "albireo" `Quick test_table4_albireo;
          Alcotest.test_case "shape" `Quick test_table4_shape;
        ] );
      ( "table5",
        [
          Alcotest.test_case "wallaby" `Quick test_table5_wallaby;
          Alcotest.test_case "albireo" `Quick test_table5_albireo;
          Alcotest.test_case "shape" `Quick test_table5_shape;
        ] );
      ( "figure7",
        [
          Alcotest.test_case "wallaby: ULP wins everywhere" `Slow
            test_figure7_wallaby_ulp_wins_everywhere;
          Alcotest.test_case "wallaby: decays toward 1" `Slow
            test_figure7_wallaby_decays_toward_one;
          Alcotest.test_case "albireo: crossover at 32KiB" `Slow
            test_figure7_albireo_crossover_at_32k;
          Alcotest.test_case "albireo: no decay to 1" `Slow
            test_figure7_albireo_ulp_does_not_decay;
          Alcotest.test_case "busywait <= blocking" `Slow
            test_figure7_blocking_never_beats_busywait;
        ] );
      ( "figure8",
        [
          Alcotest.test_case "overlap formula" `Quick test_overlap_formula;
          Alcotest.test_case "shapes both machines" `Slow test_figure8_shapes;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "A1 tls" `Quick test_a1_tls_ablation;
          Alcotest.test_case "A2 handoff sweep" `Quick
            test_a2_handoff_sweep_monotone;
          Alcotest.test_case "A4 m:n" `Quick test_a4_mn_ablation;
          Alcotest.test_case "A5 ucontext cost" `Quick
            test_ucontext_switch_costs_more;
        ] );
      ( "nonblocking_alternative",
        [
          Alcotest.test_case "BLT: one read per message" `Quick
            test_nonblock_blt_reads_exactly_once_per_message;
          Alcotest.test_case "ULT: EAGAIN storm" `Quick
            test_nonblock_ult_burns_eagain_rounds;
        ] );
      ( "blocking_syscall",
        [
          Alcotest.test_case "ULT scheduler stalls" `Quick
            test_blocking_ult_stalls_scheduler;
          Alcotest.test_case "BLT hides the block" `Quick
            test_blocking_blt_hides_the_block;
          Alcotest.test_case "comparison factor" `Quick
            test_blocking_comparison_factor;
        ] );
      ( "oversubscription",
        [
          Alcotest.test_case "equations" `Quick test_oversub_equations;
          Alcotest.test_case "ULP wins at O=1" `Slow
            test_oversub_ulp_wins_with_oversubscription;
        ] );
      ( "policies",
        [
          Alcotest.test_case "SJF minimizes mean completion" `Quick
            test_policy_sjf_minimizes_mean_completion;
          Alcotest.test_case "SJF orders by size" `Quick
            test_policy_sjf_order_is_by_size;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "bit-identical" `Quick
            test_experiments_are_deterministic;
          QCheck_alcotest.to_alcotest prop_owc_plain_monotone_in_size;
        ] );
    ]
