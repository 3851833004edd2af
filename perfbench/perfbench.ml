(* The repo benchmark: three open-loop workloads over the real runtime
   (Fiber / Blt_rt / Executor, Reactor / Poller, Fiber_io, Tcp_server,
   Proc, Proc.Io).  README.md in this directory says why each workload
   exists and which layer metric should move which end-to-end metric.

     perfbench.exe run --workload W --seed N --seconds S --trace 0|1
       The serving process.  Sets up the runtime, drives (ulp_jobs) or
       serves (the network workloads) three phases -- light and heavy
       Poisson arrivals, then a closed loop with nproc ops in flight --
       checks every output and the end-of-run leak invariants, and
       prints one JSON line of results.

     perfbench.exe client ...
       The load generator of the network workloads, forked by [run]:
       nproc threads, at most nproc connections, blocking sockets.

   Every latency is timed from the op's due time, not from when it was
   sent.  perfbench/run.py builds this program, runs it and prints the
   metrics. *)

module Fiber = Fiber_rt.Fiber
module Blt = Fiber_rt.Blt_rt
module Reactor = Net.Reactor
module Fio = Net.Fiber_io
module Tcp = Net.Tcp_server
module Stats = Perfbench_core.Stats
module Spans = Perfbench_core.Spans

let t_start = Unix.gettimeofday ()
let now = Unix.gettimeofday
let nproc = Domain.recommended_domain_count ()

(* ---------- workloads and phases ---------- *)

type kind = Keepalive | Per_conn | Jobs

type workload = {
  name : string;
  kind : kind;
  light : float;  (** arrivals/s of the light phase *)
  heavy : float;  (** arrivals/s of the heavy phase, below the knee *)
  sat_cap : int;  (** most jobs the closed-loop phase may run *)
  warmup : int;  (** unmeasured ops per connection before the clock *)
}

(* Each heavy rate is a fifth to a tenth of the closed-loop throughput
   on one vCPU of a 2-vCPU x86-64 VM (echo 28-34k ops/s, ulp_per_conn
   7-9k conns/s, ulp_jobs 8-10k jobs/s), so the phase stays below the
   knee when a busy host slows the VM down.  ulp_jobs caps its closed
   loop: every job leaves one executor OS thread alive until the run
   ends, so the cap fixes the thread count that teardown and memory
   depend on. *)
let workloads =
  [
    {
      name = "echo_keepalive";
      kind = Keepalive;
      light = 1000.;
      heavy = 5000.;
      sat_cap = max_int;
      warmup = 500;
    };
    {
      name = "ulp_per_conn";
      kind = Per_conn;
      light = 500.;
      heavy = 1500.;
      sat_cap = max_int;
      warmup = 100;
    };
    {
      name = "ulp_jobs";
      kind = Jobs;
      light = 200.;
      heavy = 800.;
      sat_cap = 800;
      warmup = 20;
    };
  ]

(* An op slower than [limit_s] has as good as failed, and counts as
   failed.  One slower than [slow_s] counts as slow: slow ops are
   reported, but are not failures, because host steal alone makes a few
   in a million take 50 ms. *)
let limit_s = 1.0
let slow_s = 0.05

type phase = {
  label : string;
  rate : float option;  (** [None]: closed loop *)
  start : float;  (** offset from the first due arrival *)
  stop : float;
  traced : bool;
}

(* The untraced run measures light, heavy, sat.  The traced run adds an
   untraced heavy phase ("heavy_ref") just before the traced one: their
   p10 ratio is the tracing overhead. *)
let phases w ~seconds ~trace =
  let plan =
    if trace then
      [
        ("light", Some w.light, true);
        ("heavy_ref", Some w.heavy, false);
        ("heavy", Some w.heavy, true);
        ("sat", None, true);
      ]
    else
      [ ("light", Some w.light, false); ("heavy", Some w.heavy, false); ("sat", None, false) ]
  in
  let d = seconds /. float_of_int (List.length plan) in
  List.mapi
    (fun i (label, rate, traced) ->
      { label; rate; start = d *. float_of_int i; stop = d *. float_of_int (i + 1); traced })
    plan

(* The open-loop arrivals of every phase, as (offset from t0, phase
   index), ascending.  [stream] picks an independent schedule and
   [share] divides the rate (one stream per keepalive connection). *)
let schedule ~seed ~stream ~share phases =
  List.mapi
    (fun k p ->
      match p.rate with
      | None -> [||]
      | Some rate ->
          Array.map
            (fun off -> (p.start +. off, k))
            (Stats.poisson ~seed ~stream:((k * 64) + stream) ~rate:(rate /. share)
               ~duration:(p.stop -. p.start)))
    phases
  |> Array.concat

(* ---------- payloads ---------- *)

let frame_len = 64
let file_len = 4096

let mix x =
  let x = (x lxor (x lsr 31)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 29)) * 0x14d049bb133111eb in
  x lxor (x lsr 32)

(* [len] (a multiple of 8) bytes derived from the seed and the op id;
   the first 8 carry the op id itself. *)
let fill ~seed op buf len =
  Bytes.set_int64_le buf 0 (Int64.of_int op);
  let x = ref (mix ((seed * 0x2545F4914F6CDD1D) + op)) in
  let j = ref 8 in
  while !j < len do
    x := mix (!x + !j);
    Bytes.set_int64_le buf !j (Int64.of_int !x);
    j := !j + 8
  done

let op_of buf = Int64.to_int (Bytes.get_int64_le buf 0)

(* ---------- per-phase accounting ---------- *)

type acc = {
  mutable lats : (float * float) list;  (** (due, done) of each completed op *)
  mutable lates : float list;  (** due -> sent, seconds *)
  mutable attempted : int;
  mutable failed : int;
  mutable t_last : float;
}

let new_acc () = { lats = []; lates = []; attempted = 0; failed = 0; t_last = 0. }

type tally = {
  accs : acc array;  (** one per phase *)
  fails : (string, int) Hashtbl.t;
  mutable conns : (int * float) list;  (** op id, connect returned *)
  mutable seq : int;
}

let new_tally nphases =
  { accs = Array.init nphases (fun _ -> new_acc ()); fails = Hashtbl.create 8; conns = []; seq = 0 }

let fail t k kind =
  t.accs.(k).failed <- t.accs.(k).failed + 1;
  Hashtbl.replace t.fails kind (1 + Option.value ~default:0 (Hashtbl.find_opt t.fails kind))

let complete t k ~due ~at =
  let a = t.accs.(k) in
  a.lats <- (due, at) :: a.lats;
  a.t_last <- Float.max a.t_last at;
  if at -. due > limit_s then fail t k "over_limit"

let sent t k ~due ~at =
  let a = t.accs.(k) in
  a.attempted <- a.attempted + 1;
  a.lates <- (at -. due) :: a.lates

let merge tallies k =
  let m = new_acc () in
  List.iter
    (fun t ->
      let a = t.accs.(k) in
      m.lats <- List.rev_append a.lats m.lats;
      m.lates <- List.rev_append a.lates m.lates;
      m.attempted <- m.attempted + a.attempted;
      m.failed <- m.failed + a.failed;
      m.t_last <- Float.max m.t_last a.t_last)
    tallies;
  m

(* One phase's summary, latencies in ms. *)
type summary = {
  s_label : string;
  n : int;
  s_attempted : int;
  s_failed : int;
  p10 : float;
  p50 : float;
  p90 : float;
  p99 : float;
  tail_pct : float;  (** the highest percentile with >= 10 samples beyond *)
  tail : float;
  late_p99 : float;
  ops_per_s : float;
  slow : int;  (** ops slower than [slow_s] *)
}

let summarize ~t0 (p : phase) (a : acc) =
  let lats = Stats.sorted_of_list (List.map (fun (due, at) -> at -. due) a.lats) in
  let lates = Stats.sorted_of_list a.lates in
  let n = Array.length lats in
  let ms x = x *. 1e3 in
  let tail_pct = Option.value ~default:0. (Stats.tail_percentile n) in
  {
    s_label = p.label;
    n;
    s_attempted = a.attempted;
    s_failed = a.failed;
    p10 = ms (Stats.percentile lats 10.);
    p50 = ms (Stats.percentile lats 50.);
    p90 = ms (Stats.percentile lats 90.);
    p99 = ms (Stats.percentile lats 99.);
    tail_pct;
    tail = (if tail_pct > 0. then ms (Stats.percentile lats tail_pct) else nan);
    late_p99 = ms (Stats.percentile lates 99.);
    ops_per_s =
      (if p.rate = None then
         Stats.windowed_rate ~lo:(t0 +. p.start) ~hi:(Float.min (t0 +. p.stop) a.t_last) ~width:0.005
           (List.map snd a.lats)
       else 0.);
    slow = Array.fold_left (fun n x -> if x > slow_s then n + 1 else n) 0 lats;
  }

let summary_line s =
  Printf.sprintf "phase %s %d %d %d %.9g %.9g %.9g %.9g %.9g %.9g %.9g %.9g %d" s.s_label s.n
    s.s_attempted s.s_failed s.p10 s.p50 s.p90 s.p99 s.tail_pct s.tail s.late_p99 s.ops_per_s s.slow

let summary_of_line = function
  | [ l; n; at; f; p10; p50; p90; p99; tp; tl; late; ops; slow ] ->
      let fl = float_of_string in
      {
        s_label = l;
        n = int_of_string n;
        s_attempted = int_of_string at;
        s_failed = int_of_string f;
        p10 = fl p10;
        p50 = fl p50;
        p90 = fl p90;
        p99 = fl p99;
        tail_pct = fl tp;
        tail = fl tl;
        late_p99 = fl late;
        ops_per_s = fl ops;
        slow = int_of_string slow;
      }
  | _ -> failwith "malformed phase line"

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---------- the load generator (network workloads) ---------- *)

let rec write_full fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_full fd buf (off + n) (len - n)
  end

let rec read_full fd buf off len =
  if len > 0 then begin
    let n = Unix.read fd buf off len in
    if n = 0 then raise End_of_file;
    read_full fd buf (off + n) (len - n)
  end

let connect_to addr =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO (limit_s +. 1.);
    Unix.connect fd addr;
    fd
  with e ->
    Unix.close fd;
    raise e

(* The failure class of an exception raised by one op's socket calls. *)
let failure_kind = function
  | Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> "refused"
  | Unix.Unix_error (Unix.EADDRNOTAVAIL, _, _) -> "addrnotavail"
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> "timeout"
  | _ -> "error"

(* The client's CPU time at the first op of each phase, and at the end:
   set once, by whichever worker gets there first. *)
let mark marks k =
  let cur = Atomic.get marks.(k) in
  if Float.is_nan cur then ignore (Atomic.compare_and_set marks.(k) cur (cpu_s ()))

let next_op ~nconn ~i t =
  let op = (t.seq * nconn) + i in
  t.seq <- t.seq + 1;
  op

(* One closed-loop round trip on a keepalive connection. *)
let echo_once ~seed fd op sbuf rbuf =
  fill ~seed op sbuf frame_len;
  write_full fd sbuf 0 frame_len;
  read_full fd rbuf 0 frame_len;
  Bytes.equal sbuf rbuf

(* The closed loop shared by both network workloads: [op k] runs one op
   of the last phase [k].  A thread starts once its open-loop ops have
   drained and the phase is due. *)
let closed_loop ~t0 ~phases ~marks ~stop_early op =
  let k = List.length phases - 1 in
  let p = List.nth phases k in
  let d = t0 +. p.start -. now () in
  if d > 0. then Unix.sleepf d;
  mark marks k;
  let until = t0 +. p.stop in
  while (not (stop_early ())) && now () < until do
    op k
  done

(* Pipelined open loop on one persistent connection: send each request
   when due, read replies as they come, match them in order. *)
let keepalive_worker ~seed ~phases ~t0 ~i ~marks fd t =
  let nconn = nproc in
  let sched = schedule ~seed ~stream:i ~share:(float_of_int nconn) phases in
  let inflight = Queue.create () in
  let frame = Bytes.create frame_len and expect = Bytes.create frame_len in
  let sbuf = Bytes.create frame_len and rbuf = Bytes.create 65536 in
  let have = ref 0 in
  let on_frame at =
    match Queue.take_opt inflight with
    | None -> fail t 0 "error"
    | Some (op, due, k) ->
        fill ~seed op expect frame_len;
        if Bytes.equal frame expect then complete t k ~due ~at else fail t k "wrong_bytes"
  in
  let pump timeout =
    match Unix.select [ fd ] [] [] (Float.max 0. timeout) with
    | [], _, _ -> ()
    | _ ->
        let n = Unix.read fd rbuf 0 (Bytes.length rbuf) in
        if n = 0 then raise End_of_file;
        let at = now () in
        let off = ref 0 in
        while !off < n do
          let take = min (frame_len - !have) (n - !off) in
          Bytes.blit rbuf !off frame !have take;
          have := !have + take;
          off := !off + take;
          if !have = frame_len then begin
            have := 0;
            on_frame at
          end
        done
  in
  let broken = ref false and sent_n = ref 0 in
  (try
     Array.iter
       (fun (off, k) ->
         let due = t0 +. off in
         let rec wait () =
           let d = due -. now () in
           if d > 0. then begin
             pump d;
             wait ()
           end
         in
         wait ();
         mark marks k;
         let op = next_op ~nconn ~i t in
         fill ~seed op sbuf frame_len;
         sent t k ~due ~at:(now ());
         incr sent_n;
         write_full fd sbuf 0 frame_len;
         Queue.push (op, due, k) inflight)
       sched;
     let deadline = now () +. limit_s +. 1. in
     while (not (Queue.is_empty inflight)) && now () < deadline do
       pump (deadline -. now ())
     done
   with e ->
     broken := true;
     let kind = failure_kind e in
     Array.iteri
       (fun j (off, k) ->
         if j >= !sent_n then begin
           sent t k ~due:(t0 +. off) ~at:(now ());
           fail t k kind
         end)
       sched);
  (* ops never answered; a connection left mid-stream is not reused *)
  Queue.iter (fun (_, _, k) -> fail t k "timeout") inflight;
  if not (Queue.is_empty inflight) then broken := true;
  let rbuf = Bytes.create frame_len in
  closed_loop ~t0 ~phases ~marks ~stop_early:(fun () -> !broken) (fun k ->
      let op = next_op ~nconn ~i t in
      let due = now () in
      sent t k ~due ~at:due;
      match echo_once ~seed fd op sbuf rbuf with
      | true -> complete t k ~due ~at:(now ())
      | false ->
          fail t k "wrong_bytes";
          broken := true
      | exception e ->
          fail t k (failure_kind e);
          broken := true)

(* One op of ulp_per_conn: connect, one echo, close. *)
let one_conn ~seed ~addr ~trace t k op ~due =
  let sbuf = Bytes.create frame_len and rbuf = Bytes.create frame_len in
  fill ~seed op sbuf frame_len;
  match connect_to addr with
  | exception e -> fail t k (failure_kind e)
  | fd -> (
      if trace then t.conns <- (op, now ()) :: t.conns;
      let ok =
        try
          write_full fd sbuf 0 frame_len;
          read_full fd rbuf 0 frame_len;
          Ok (Bytes.equal sbuf rbuf)
        with e -> Error e
      in
      Unix.close fd;
      match ok with
      | Ok true -> complete t k ~due ~at:(now ())
      | Ok false -> fail t k "wrong_bytes"
      | Error e -> fail t k (failure_kind e))

(* Open loop over one shared schedule: an arrival that finds both
   connection slots busy waits for one, its latency still counted from
   its due time. *)
let per_conn_worker ~seed ~phases ~t0 ~i ~addr ~trace ~marks ~sched ~next t =
  let nconn = nproc in
  let rec go () =
    let j = Atomic.fetch_and_add next 1 in
    if j < Array.length sched then begin
      let off, k = sched.(j) in
      let due = t0 +. off in
      let d = due -. now () in
      if d > 0. then Unix.sleepf d;
      mark marks k;
      sent t k ~due ~at:(now ());
      one_conn ~seed ~addr ~trace t k (next_op ~nconn ~i t) ~due;
      go ()
    end
  in
  go ();
  closed_loop ~t0 ~phases ~marks ~stop_early:(fun () -> false) (fun k ->
      let due = now () in
      sent t k ~due ~at:due;
      one_conn ~seed ~addr ~trace t k (next_op ~nconn ~i t) ~due)

(* The failure counts of several tallies, summed per kind. *)
let merge_fails tallies =
  let fails = Hashtbl.create 8 in
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun kind n ->
          Hashtbl.replace fails kind (n + Option.value ~default:0 (Hashtbl.find_opt fails kind)))
        t.fails)
    tallies;
  Hashtbl.fold (fun kind n acc -> (kind, n) :: acc) fails []

let client w ~seed ~seconds ~trace ~port =
  let phases = phases w ~seconds ~trace in
  let nphases = List.length phases in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let nconn = nproc in
  let tallies = Array.init nconn (fun _ -> new_tally nphases) in
  let warm = new_tally 1 in
  (* connections and warm-up: part of set-up, not measured *)
  let fds =
    match w.kind with
    | Keepalive ->
        Array.init nconn (fun i ->
            let fd = connect_to addr in
            let connected = now () in
            let t = tallies.(i) in
            let sbuf = Bytes.create frame_len and rbuf = Bytes.create frame_len in
            for _ = 1 to w.warmup do
              let op = next_op ~nconn ~i t in
              if trace && t.seq = 1 then t.conns <- (op, connected) :: t.conns;
              if not (echo_once ~seed fd op sbuf rbuf) then failwith "warm-up echo mismatch"
            done;
            fd)
    | Per_conn ->
        for j = 1 to w.warmup * nconn do
          let i = j mod nconn in
          one_conn ~seed ~addr ~trace:false warm 0 (next_op ~nconn ~i tallies.(i)) ~due:(now ())
        done;
        Hashtbl.iter (fun kind n -> Printf.eprintf "perfbench: warm-up: %d %s\n%!" n kind) warm.fails;
        [||]
    | Jobs -> invalid_arg "client: ulp_jobs has no network client"
  in
  let t0 = now () +. 0.002 in
  Printf.printf "ready %.6f\n%!" t0;
  let cpu0 = cpu_s () in
  let marks = Array.init (nphases + 1) (fun _ -> Atomic.make nan) in
  let sched = schedule ~seed ~stream:0 ~share:1. phases and next = Atomic.make 0 in
  let work i () =
    match w.kind with
    | Keepalive -> keepalive_worker ~seed ~phases ~t0 ~i ~marks fds.(i) tallies.(i)
    | Per_conn -> per_conn_worker ~seed ~phases ~t0 ~i ~addr ~trace ~marks ~sched ~next tallies.(i)
    | Jobs -> ()
  in
  let helpers = List.init (nconn - 1) (fun i -> Domain.spawn (work (i + 1))) in
  work 0 ();
  List.iter Domain.join helpers;
  mark marks nphases;
  let cpu = cpu_s () -. cpu0 in
  Array.iter Unix.close fds;
  let all = Array.to_list tallies in
  List.iteri (fun k p -> print_endline (summary_line (summarize ~t0 p (merge all k)))) phases;
  List.iter (fun (kind, n) -> Printf.printf "fail %s %d\n" kind n) (merge_fails all);
  Printf.printf "cpu %.6f\n" cpu;
  Printf.printf "cpu_ready %.6f\n" cpu0;
  Array.iteri (fun k m -> Printf.printf "cpu_at %d %.6f\n" k (Atomic.get m)) marks;
  if trace then
    Array.iter (fun t -> List.iter (fun (op, at) -> Printf.printf "conn %d %.6f\n" op at) t.conns) tallies;
  print_string "end\n"

(* ---------- server-side snapshots ---------- *)

type snap = {
  sched : Fiber.Sched_stats.t option;
  reactor : Reactor.stats;
  cpu : float;
  tasks : int;
  rss_mb : float;  (** VmHWM so far *)
}

let task_count () = try Array.length (Sys.readdir "/proc/self/task") with Sys_error _ -> 0
let fd_count () = try Array.length (Sys.readdir "/proc/self/fd") with Sys_error _ -> 0

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let snap r =
  {
    sched = Fiber.sched_stats ();
    reactor = Reactor.stats r;
    cpu = cpu_s ();
    tasks = task_count ();
    rss_mb = peak_rss_mb ();
  }

(* Scheduler counters of one phase: the delta of two snapshots. *)
let sched_delta (a : snap) (b : snap) =
  match (a.sched, b.sched) with
  | Some a, Some b ->
      let open Fiber.Sched_stats in
      Some
        {
          b with
          steals = b.steals - a.steals;
          steal_attempts = b.steal_attempts - a.steal_attempts;
          steal_fails = b.steal_fails - a.steal_fails;
          parks = b.parks - a.parks;
          deep_parks = b.deep_parks - a.deep_parks;
          wakes = b.wakes - a.wakes;
          spins = b.spins - a.spins;
          inj_drains = b.inj_drains - a.inj_drains;
          active_hist =
            Array.mapi
              (fun i x -> x - if i < Array.length a.active_hist then a.active_hist.(i) else 0)
              b.active_hist;
        }
  | _ -> None

(* ---------- the serving side ---------- *)

type counters = {
  bad_exit : int Atomic.t;  (** ULPs that did not end [Exited 0] *)
  live_peak : int Atomic.t;
  coupled_calls : int Atomic.t;
}

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* echo_keepalive: a plain fiber per connection. *)
let echo_handler r (c : Tcp.conn) =
  Unix.setsockopt c.Tcp.fd Unix.TCP_NODELAY true;
  let buf = Bytes.create 65536 in
  let op = ref (-1) in
  Spans.span ~op "tcp_server.handler" (fun hid ->
      let rec loop () =
        let n =
          Spans.span ~parent:hid "fiber_io.read" (fun _ ->
              Fio.read r c.Tcp.fd buf 0 (Bytes.length buf))
        in
        if n > 0 then begin
          if !op < 0 && n >= 8 then op := op_of buf;
          Spans.span ~parent:hid "fiber_io.write_all" (fun _ -> Fio.write_all r c.Tcp.fd buf 0 n);
          loop ()
        end
      in
      loop ())

let ok_status = function Ok (Proc.Exited 0) -> true | _ -> false

(* ulp_per_conn: the examples/multi_tenant.ml topology -- detach, one
   ULP per connection adopting the socket, echo through Proc.Io, reap. *)
let ulp_handler root cnt r (c : Tcp.conn) =
  let op = ref (-1) in
  Spans.span ~op "tcp_server.handler" (fun hid ->
      Tcp.detach c;
      let fd = c.Tcp.fd in
      let child =
        Spans.span ~parent:hid "proc.spawn" (fun _ ->
            Proc.spawn ~parent:root (fun u ->
                let vfd = Spans.span ~parent:hid "proc_io.adopt" (fun _ -> Proc.Io.adopt u fd) in
                let buf = Bytes.create frame_len in
                let rec loop () =
                  let n =
                    Spans.span ~parent:hid "proc_io.read" (fun _ -> Proc.Io.read r u vfd buf 0 frame_len)
                  in
                  if n > 0 then begin
                    if !op < 0 && n >= 8 then op := op_of buf;
                    Spans.span ~parent:hid "proc_io.write_all" (fun _ -> Proc.Io.write_all r u vfd buf 0 n);
                    loop ()
                  end
                in
                loop ()))
      in
      atomic_max cnt.live_peak (Proc.live_procs (Proc.world root));
      let st =
        Spans.span ~parent:hid "proc.waitpid" (fun _ ->
            Proc.waitpid ~parent:root ~vpid:(Proc.getpid child))
      in
      if not (ok_status st) then Atomic.incr cnt.bad_exit)

(* The outcome of a network run, as the serving process saw it. *)
type net_result = {
  n_t0 : float;
  lines : string list list;  (** the client's report, split into words *)
  snaps : snap array;  (** one at each phase start, one at the end *)
  tcp : Tcp.stats;
  n_done : float;  (** the client's report is in: teardown starts *)
}

let read_lines r fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec drain () =
    match Fio.read r fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (( <> ) "")
  |> List.map (fun l -> String.split_on_char ' ' l)

(* Read one line (the "ready" handshake) without consuming more: the
   client writes nothing else until the run ends. *)
let read_line r fd =
  let b = Buffer.create 32 and c = Bytes.create 1 in
  let rec go () =
    match Fio.read r fd c 0 1 with
    | 0 -> failwith "client exited before it was ready"
    | _ when Bytes.get c 0 = '\n' -> Buffer.contents b
    | _ ->
        Buffer.add_char b (Bytes.get c 0);
        go ()
  in
  go ()

(* Sleep to each phase boundary, toggle tracing and snapshot the
   counters there. *)
let boundary_fiber r ~t0 ~phases snaps =
  Fiber.spawn (fun () ->
      List.iteri
        (fun k p ->
          Reactor.sleep_until r (t0 +. p.start);
          Spans.set_enabled p.traced;
          snaps.(k) <- snap r)
        phases;
      let last = List.nth phases (List.length phases - 1) in
      Reactor.sleep_until r (t0 +. last.stop);
      snaps.(List.length phases) <- snap r)

let serve_net w ~seed ~seconds ~trace r world cnt =
  let phases = phases w ~seconds ~trace in
  let root = Proc.root world in
  let handler = match w.kind with Per_conn -> ulp_handler root cnt | _ -> echo_handler in
  let srv = Tcp.start ~reactor:r ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) ~handler () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let args =
    [
      exe; "client"; "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%.17g" seconds; "--trace"; (if trace then "1" else "0"); "--port";
      string_of_int (Tcp.port srv);
    ]
  in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  Fio.set_nonblock out_r;
  let t0 =
    match String.split_on_char ' ' (read_line r out_r) with
    | [ "ready"; t ] -> float_of_string t
    | _ -> failwith "bad handshake from the client"
  in
  let snaps = Array.make (List.length phases + 1) (snap r) in
  let b = boundary_fiber r ~t0 ~phases snaps in
  let lines = read_lines r out_r in
  Unix.close out_r;
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        Reactor.sleep r 0.001;
        reap ()
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "the client process failed"
  in
  reap ();
  Fiber.join b;
  Spans.set_enabled false;
  let done_at = now () in
  Tcp.stop srv;
  { n_t0 = t0; lines; snaps; tcp = Tcp.stats srv; n_done = done_at }

(* The files the jobs write.  A job takes a free one, or names a new one
   when none is free, and gives it back when it ends.  So files are made
   only while the pool grows, not once per job: creating and unlinking a
   file per job made the job's CPU cost follow the state of the file
   system's journal, up to half again from one run to the next. *)
type files = { dir : string; free : string list Atomic.t; made : int Atomic.t }

let rec take_file f =
  match Atomic.get f.free with
  | [] -> Filename.concat f.dir (string_of_int (Atomic.fetch_and_add f.made 1))
  | path :: rest as l -> if Atomic.compare_and_set f.free l rest then path else take_file f

let rec give_file f path =
  let l = Atomic.get f.free in
  if not (Atomic.compare_and_set f.free l (path :: l)) then give_file f path

(* ulp_jobs: the paper's open-write-close inside a ULP, coupled to its
   original KC, then a read-back check.  Every write covers the whole
   file, so no O_TRUNC is needed. *)
let job_body ~seed ~r ~files ~parent ~cnt op u =
  let path = take_file files in
  let data = Bytes.create file_len and back = Bytes.create file_len in
  fill ~seed op data file_len;
  Atomic.incr cnt.coupled_calls;
  Spans.span ~parent "blt.coupled" (fun cid ->
      Blt.coupled (fun () ->
          let fd =
            Spans.span ~parent:cid "proc_io.openfile" (fun _ ->
                Proc.Io.openfile u path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o600)
          in
          Spans.span ~parent:cid "proc_io.write_all" (fun _ -> Proc.Io.write_all r u fd data 0 file_len);
          Spans.span ~parent:cid "proc_io.close" (fun _ -> Proc.Io.close u fd)));
  let fd =
    Spans.span ~parent "proc_io.openfile" (fun _ ->
        Proc.Io.openfile u path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
  in
  let n = Spans.span ~parent "proc_io.read" (fun _ -> Proc.Io.read r u fd back 0 file_len) in
  Spans.span ~parent "proc_io.close" (fun _ -> Proc.Io.close u fd);
  give_file files path;
  if n <> file_len || not (Bytes.equal data back) then Proc.exit u 1

(* Spawn one job ULP; the returned function reaps it (fiber context) and
   says whether it ended [Exited 0]. *)
let start_job ~seed ~r ~files ~root ~cnt op =
  let id = Spans.fresh_id () in
  let t0 = now () in
  atomic_max cnt.live_peak (Proc.live_procs (Proc.world root) + 1);
  let child =
    Spans.span ~parent:id "proc.spawn" (fun _ ->
        Proc.spawn ~parent:root (job_body ~seed ~r ~files ~parent:id ~cnt op))
  in
  fun () ->
    let st =
      Spans.span ~parent:id "proc.waitpid" (fun _ -> Proc.waitpid ~parent:root ~vpid:(Proc.getpid child))
    in
    Spans.record_if ~id ~parent:(-1) ~op "job" t0 (now ());
    let ok = ok_status st in
    if not ok then Atomic.incr cnt.bad_exit;
    ok

type jobs_result = {
  j_t0 : float;
  summaries : summary list;
  j_snaps : snap array;
  j_fails : (string * int) list;
  j_done : float;  (** every job reaped and accounted: teardown starts *)
}

(* The arrival clock of ulp_jobs: a domain of its own that sleeps to
   each of [dues] (ascending) and posts [cell].  The arrival fiber parks
   on the cell, so it waits without coupling (it stays off the
   couple/decouple path this workload measures) and without the
   reactor's millisecond timer ticks. *)
let start_clock dues cell =
  Domain.spawn (fun () ->
      Array.iter
        (fun due ->
          let d = due -. now () in
          if d > 0. then Unix.sleepf d;
          ignore (Net.Readiness.post cell))
        dues)

(* Park until [due], which must be one of the clock's times.  A post
   left over from a time already passed wakes the fiber early; it then
   parks again. *)
let wait_until cell due =
  while now () < due do
    Fiber.suspend (fun wake -> ignore (Net.Readiness.await cell wake))
  done

let run_jobs w ~seed ~seconds ~trace r world cnt ~dir =
  let phases = phases w ~seconds ~trace in
  let files = { dir; free = Atomic.make []; made = Atomic.make 0 } in
  let root = Proc.root world in
  let nphases = List.length phases in
  let t = new_tally nphases in
  let next = Atomic.make 0 in
  let fresh () = 1 + Atomic.fetch_and_add next 1 in
  for _ = 1 to w.warmup do
    if not (start_job ~seed ~r ~files ~root ~cnt (fresh ()) ()) then failwith "warm-up job failed"
  done;
  let t0 = now () +. 0.002 in
  let snaps = Array.make (nphases + 1) (snap r) in
  let sched = schedule ~seed ~stream:0 ~share:1. phases in
  let n = Array.length sched in
  let done_at = Array.make n nan and ok = Array.make n false in
  let reapers = ref [] in
  let cell = Net.Readiness.create () in
  let clock =
    let dues = Array.append (Array.map fst sched) (Array.of_list (List.map (fun p -> p.start) phases)) in
    Array.sort Float.compare dues;
    start_clock (Array.map (( +. ) t0) dues) cell
  in
  let phase = ref (-1) in
  let enter k =
    while !phase < k do
      incr phase;
      let p = List.nth phases !phase in
      wait_until cell (t0 +. p.start);
      Spans.set_enabled p.traced;
      snaps.(!phase) <- snap r
    done
  in
  (* open loop: one arrival fiber; a reaper fiber per job *)
  Array.iteri
    (fun j (off, k) ->
      enter k;
      let due = t0 +. off in
      wait_until cell due;
      sent t k ~due ~at:(now ());
      let reap = start_job ~seed ~r ~files ~root ~cnt (fresh ()) in
      reapers :=
        Fiber.spawn (fun () ->
            ok.(j) <- reap ();
            done_at.(j) <- now ())
        :: !reapers)
    sched;
  List.iter Fiber.join !reapers;
  Array.iteri
    (fun j (off, k) ->
      if ok.(j) then complete t k ~due:(t0 +. off) ~at:done_at.(j) else fail t k "bad_exit")
    sched;
  (* closed loop: nproc fibers, each spawn -> reap in turn *)
  let k = nphases - 1 in
  enter k;
  (* the sat phase's start was the clock's last time *)
  Domain.join clock;
  let until = t0 +. (List.nth phases k).stop in
  let budget = Atomic.make w.sat_cap in
  let loops =
    List.init nproc (fun _ ->
        let mine = new_tally nphases in
        ( mine,
          Fiber.spawn (fun () ->
              while now () < until && Atomic.fetch_and_add budget (-1) > 0 do
                let due = now () in
                sent mine k ~due ~at:due;
                if start_job ~seed ~r ~files ~root ~cnt (fresh ()) () then
                  complete mine k ~due ~at:(now ())
                else fail mine k "bad_exit"
              done) ))
  in
  List.iter (fun (_, f) -> Fiber.join f) loops;
  snaps.(nphases) <- snap r;
  (* a file a job did not give back stays, and the leak check finds it *)
  List.iter Unix.unlink (Atomic.exchange files.free []);
  Spans.set_enabled false;
  let all = t :: List.map fst loops in
  let summaries = List.mapi (fun k p -> summarize ~t0 p (merge all k)) phases in
  { j_t0 = t0; summaries; j_snaps = snaps; j_fails = merge_fails all; j_done = now () }

(* ---------- metrics ---------- *)

let find_summary summaries label =
  List.find (fun s -> s.s_label = label) summaries

(* Per-layer metrics of a traced run.  A layer the workload never calls
   reads 0. *)
let layer_metrics ~phases ~summaries ~snaps ~spans ~conns ~tcp ~cnt ~loadgen_cpu ~setup_wall_s ~teardown_s =
  let spans = Spans.resolve_ops spans in
  let p q xs = if Array.length xs = 0 then 0. else Stats.percentile xs q in
  let dur name q = p q (Spans.durations_us spans name) in
  let per_phase =
    List.concat
      (List.mapi
         (fun k ph ->
           if ph.label = "heavy_ref" then []
           else
             let ops = float_of_int (max 1 (find_summary summaries ph.label).s_attempted) in
             let a = snaps.(k) and b = snaps.(k + 1) in
             let polls = b.reactor.Reactor.polls - a.reactor.Reactor.polls in
             let wakeups = b.reactor.Reactor.wakeups - a.reactor.Reactor.wakeups in
             let sched =
               match sched_delta a b with
               | None -> [ 0.; 0.; 0.; 0.; 0.; 0. ]
               | Some d ->
                   let open Fiber.Sched_stats in
                   [
                     float_of_int d.wakes /. ops;
                     float_of_int d.parks /. ops;
                     float_of_int d.deep_parks /. ops;
                     steal_fail_rate d;
                     float_of_int (active_p50 d);
                     float_of_int d.inj_drains /. ops;
                   ]
             in
             List.map2
               (fun name v -> (Printf.sprintf "%s.%s" name ph.label, v))
               [
                 "fiber.wakes_per_op"; "fiber.parks_per_op"; "fiber.deep_parks_per_op";
                 "fiber.steal_fail_rate"; "fiber.active_workers_p50"; "fiber.inj_drains_per_op";
               ]
               sched
             @ [
                 (Printf.sprintf "reactor.polls_per_op.%s" ph.label, float_of_int polls /. ops);
                 ( Printf.sprintf "reactor.wakeups_per_poll.%s" ph.label,
                   if polls = 0 then 0. else float_of_int wakeups /. float_of_int polls );
               ])
         phases)
  in
  let first = snaps.(0) and last = snaps.(Array.length snaps - 1) in
  let handler_t0 = Hashtbl.create 1024 in
  Array.iter
    (fun (s : Spans.t) ->
      if s.name = "tcp_server.handler" && s.op >= 0 then Hashtbl.replace handler_t0 s.op s.t0)
    spans;
  let dispatch =
    List.filter_map
      (fun (op, at) ->
        Option.map (fun t -> (t -. at) *. 1e6) (Hashtbl.find_opt handler_t0 op))
      conns
    |> Stats.sorted_of_list
  in
  let ops = List.fold_left (fun n s -> if s.s_label = "heavy_ref" then n else n + s.s_attempted) 0 summaries in
  let light = find_summary summaries "light" and heavy = find_summary summaries "heavy" in
  let heavy_ref = find_summary summaries "heavy_ref" in
  let coupled = Atomic.get cnt.coupled_calls > 0 in
  per_phase
  @ [
      ("reactor.errors", float_of_int (last.reactor.Reactor.errors - first.reactor.Reactor.errors));
      ("fiber_io.read.p50_us", dur "fiber_io.read" 50.);
      ("fiber_io.write_all.p50_us", dur "fiber_io.write_all" 50.);
      ("tcp_server.accept_retries", float_of_int (Option.fold ~none:0 ~some:(fun t -> t.Tcp.accept_retries) tcp));
      ("tcp_server.failed", float_of_int (Option.fold ~none:0 ~some:(fun t -> t.Tcp.failed) tcp));
      ("tcp_server.handler.self_us", p 50. (Spans.self_times_us spans "tcp_server.handler"));
      ("tcp_server.dispatch_p50_us", p 50. dispatch);
      ("proc.spawn.p50_us", dur "proc.spawn" 50.);
      ("proc.spawn.p99_us", dur "proc.spawn" 99.);
      ("proc.waitpid.p50_us", dur "proc.waitpid" 50.);
      ("proc.live_peak", float_of_int (Atomic.get cnt.live_peak));
      ("proc_io.adopt.p50_us", dur "proc_io.adopt" 50.);
      ("proc_io.read.p50_us", dur "proc_io.read" 50.);
      ("proc_io.write_all.p50_us", dur "proc_io.write_all" 50.);
      ("proc_io.openfile.p50_us", dur "proc_io.openfile" 50.);
      ("proc_io.close.p50_us", dur "proc_io.close" 50.);
      ("blt.coupled.p50_us", dur "blt.coupled" 50.);
      ("blt.coupled.p99_us", dur "blt.coupled" 99.);
      ( "blt.kc_threads_peak",
        if coupled then float_of_int (Array.fold_left (fun m s -> max m s.tasks) 0 snaps) else 0. );
      ("server.cpu_us_per_op", (last.cpu -. first.cpu) /. float_of_int (max 1 ops) *. 1e6);
      ("loadgen.p10_ms.light", light.p10);
      ("loadgen.p10_ms.heavy", heavy.p10);
      ("loadgen.ops_per_s.sat", (find_summary summaries "sat").ops_per_s);
      ("loadgen.slow_ops", float_of_int (List.fold_left (fun n s -> if s.s_label = "heavy_ref" then n else n + s.slow) 0 summaries));
      ("loadgen.p50_ms.light", light.p50);
      ("loadgen.p50_ms.heavy", heavy.p50);
      ("loadgen.p90_ms.light", light.p90);
      ("loadgen.p90_ms.heavy", heavy.p90);
      ("loadgen.p99_ms.light", light.p99);
      ("loadgen.p99_ms.heavy", heavy.p99);
      ("loadgen.late_p99_ms.light", light.late_p99);
      ("loadgen.late_p99_ms.heavy", heavy.late_p99);
      ("loadgen.cpu_s", loadgen_cpu);
      ("runtime.setup_wall_s", setup_wall_s);
      ("runtime.teardown_s", teardown_s);
      ("trace.overhead_pct", 100. *. ((heavy.p10 /. heavy_ref.p10) -. 1.));
    ]

(* ---------- output ---------- *)

let json_num x = if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

let json_obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs) ^ "}"

let json_nums kvs = json_obj (List.map (fun (k, v) -> (k, json_num v)) kvs)

let summary_json s =
  json_nums
    [
      ("n", float_of_int s.n); ("attempted", float_of_int s.s_attempted);
      ("failed", float_of_int s.s_failed); ("p10_ms", s.p10); ("p50_ms", s.p50); ("p90_ms", s.p90);
      ("p99_ms", s.p99); ("tail_pct", s.tail_pct); ("tail_ms", s.tail);
      ("late_p99_ms", s.late_p99); ("ops_per_s", s.ops_per_s); ("slow", float_of_int s.slow);
    ]

let read_sysctl path = try String.trim (In_channel.with_open_text path In_channel.input_all) with Sys_error _ -> "?"

let rec rm_dir_if_empty dir =
  match Sys.readdir dir with
  | [||] ->
      Sys.rmdir dir;
      let parent = Filename.dirname dir in
      if Filename.basename parent = ".perfbench_run" then (try rm_dir_if_empty parent with Sys_error _ -> ())
  | _ -> ()

let run_main w ~seed ~seconds ~trace =
  let dir = Printf.sprintf ".perfbench_run/jobs.%d" (Unix.getpid ()) in
  if w.kind = Jobs then begin
    (try Unix.mkdir ".perfbench_run" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Unix.mkdir dir 0o700
  end;
  if trace then Spans.init ();
  let fd0 = fd_count () in
  let r = Reactor.create () in
  let world = Proc.boot () in
  let cnt = { bad_exit = Atomic.make 0; live_peak = Atomic.make 0; coupled_calls = Atomic.make 0 } in
  Spans.set_enabled trace;
  let outcome = ref None in
  Fiber.run_parallel (fun () ->
      outcome :=
        Some
          (match w.kind with
          | Jobs -> `Jobs (run_jobs w ~seed ~seconds ~trace r world cnt ~dir)
          | Keepalive | Per_conn -> `Net (serve_net w ~seed ~seconds ~trace r world cnt)));
  let backend = match Reactor.backend r with `Epoll -> "epoll" | `Poll -> "poll" | `Select -> "select" in
  let shards = Reactor.shard_count r in
  Reactor.shutdown r;
  let t_end = now () in
  let spans = Spans.collected () in
  let leaks =
    List.filter_map Fun.id
      [
        (let n = fd_count () in
         if n <> fd0 then Some (Printf.sprintf "fd count %d, baseline %d" n fd0) else None);
        (let n = Proc.live_procs world in
         if n <> 1 then Some (Printf.sprintf "Proc.live_procs = %d, want 1" n) else None);
        (if w.kind = Jobs then
           match Sys.readdir dir with
           | [||] ->
               rm_dir_if_empty dir;
               None
           | files -> Some (Printf.sprintf "%d job files left in %s" (Array.length files) dir)
         else None);
      ]
  in
  let phases = phases w ~seconds ~trace in
  let t0, summaries, snaps, done_at, fails, loadgen_cpu, loadgen_cpu_at, loadgen_setup_cpu, conns, tcp =
    match !outcome with
    | None -> failwith "the run produced no result"
    | Some (`Jobs j) ->
        (j.j_t0, j.summaries, j.j_snaps, j.j_done, j.j_fails, 0., Array.make (List.length phases + 1) 0., 0., [], None)
    | Some (`Net n) ->
        if not (List.mem [ "end" ] n.lines) then failwith "the client report is truncated";
        let pick f = List.filter_map f n.lines in
        let summaries = pick (function "phase" :: rest -> Some (summary_of_line rest) | _ -> None) in
        let fails = pick (function [ "fail"; k; c ] -> Some (k, int_of_string c) | _ -> None) in
        let conns =
          pick (function
            | [ "conn"; op; at ] -> Some (int_of_string op, float_of_string at)
            | _ -> None)
        in
        let cpu = pick (function [ "cpu"; v ] -> Some (float_of_string v) | _ -> None) in
        let cpu_ready = pick (function [ "cpu_ready"; v ] -> Some (float_of_string v) | _ -> None) in
        let cpu_at = Array.make (List.length phases + 1) nan in
        List.iter
          (function [ "cpu_at"; k; v ] -> cpu_at.(int_of_string k) <- float_of_string v | _ -> ())
          n.lines;
        ( n.n_t0, summaries, n.snaps, n.n_done, fails, List.fold_left ( +. ) 0. cpu, cpu_at,
          List.fold_left ( +. ) 0. cpu_ready, conns, Some n.tcp )
  in
  let fails =
    if Atomic.get cnt.bad_exit > 0 && w.kind <> Jobs then ("bad_exit", Atomic.get cnt.bad_exit) :: fails else fails
  in
  let measured = List.filter (fun s -> s.s_label <> "heavy_ref") summaries in
  let attempted = List.fold_left (fun n s -> n + s.s_attempted) 0 measured in
  let failed =
    List.fold_left (fun n s -> n + s.s_failed) 0 measured
    + if w.kind = Jobs then 0 else Atomic.get cnt.bad_exit
  in
  let wrong = List.exists (fun (k, n) -> n > 0 && (k = "wrong_bytes" || k = "bad_exit")) fails in
  (* Set-up is timed in CPU time (user + sys) of the serving process and
     the load generator, from each one's start to the first due arrival:
     work moved into set-up shows, and the host's steal, which made the
     wall-clock set-up of one workload a third longer in one batch of
     runs than in the next, does not. *)
  let setup_s = snaps.(0).cpu +. loadgen_setup_cpu in
  (* CPU time (user + sys) of the serving process and the load generator
     together, per op attempted in one phase *)
  let cpu_us_per_op label =
    let rec index k = function
      | p :: _ when p.label = label -> k
      | _ :: rest -> index (k + 1) rest
      | [] -> invalid_arg label
    in
    let k = index 0 phases in
    let cpu = snaps.(k + 1).cpu -. snaps.(k).cpu +. loadgen_cpu_at.(k + 1) -. loadgen_cpu_at.(k) in
    cpu /. float_of_int (max 1 (find_summary summaries label).s_attempted) *. 1e6
  in
  let e2e =
    [
      ("setup_s", setup_s);
      ("cpu_us_per_op.light", cpu_us_per_op "light");
      ("cpu_us_per_op.heavy", cpu_us_per_op "heavy");
      ("cpu_us_per_op.sat", cpu_us_per_op "sat");
      ("ok_ratio", if attempted = 0 then 0. else float_of_int (attempted - failed) /. float_of_int attempted);
      ("peak_rss_mb", snaps.(List.length phases - 1).rss_mb);
    ]
  in
  let layers =
    if trace then
      layer_metrics ~phases ~summaries ~snaps ~spans ~conns ~tcp ~cnt ~loadgen_cpu
        ~setup_wall_s:(t0 -. t_start) ~teardown_s:(t_end -. done_at)
    else []
  in
  if trace && Array.length spans > 0 then begin
    (try Unix.mkdir ".perfbench_run" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    (* one file per workload, the latest run's: the spans of a whole
       series of runs would take hundreds of MB *)
    Spans.write_tsv (Printf.sprintf ".perfbench_run/spans.%s.tsv" w.name) spans
  end;
  let meta =
    [
      ("workload", Printf.sprintf "%S" w.name);
      ("seed", string_of_int seed);
      ("seconds", json_num seconds);
      ("trace", string_of_bool trace);
      ("nproc", string_of_int nproc);
      ("worker_domains", string_of_int nproc);
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
      ("poller_backend", Printf.sprintf "%S" backend);
      ("reactor_shards", string_of_int shards);
      ("rate_light_per_s", json_num w.light);
      ("rate_heavy_per_s", json_num w.heavy);
      ("sat_in_flight", string_of_int nproc);
      ("latency_limit_ms", json_num (limit_s *. 1e3));
      ("ip_local_port_range", Printf.sprintf "%S" (read_sysctl "/proc/sys/net/ipv4/ip_local_port_range"));
      ("tcp_tw_reuse", Printf.sprintf "%S" (read_sysctl "/proc/sys/net/ipv4/tcp_tw_reuse"));
      ("spans", string_of_int (Array.length spans));
      ("spans_dropped", string_of_int (Atomic.get Spans.dropped));
    ]
  in
  print_endline
    (json_obj
       [
         ("meta", json_obj meta);
         ("correct", string_of_bool ((not wrong) && leaks = []));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("leaks", "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") leaks) ^ "]");
         ("failures", json_nums (List.map (fun (k, n) -> (k, float_of_int n)) fails));
         ("phases", json_obj (List.map (fun s -> (s.s_label, summary_json s)) summaries));
         ("e2e", json_nums e2e);
         ("layers", json_nums layers);
       ]);
  if leaks <> [] then exit 3

(* ---------- command line ---------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let usage () =
    prerr_endline
      "usage: perfbench.exe (run|client) --workload NAME --seed N --seconds S --trace 0|1 [--port P]";
    exit 2
  in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  match args with
  | (("run" | "client") as cmd) :: rest -> (
      let o = opts [] rest in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let w =
        match List.find_opt (fun w -> w.name = get "workload") workloads with
        | Some w -> w
        | None ->
            prerr_endline ("unknown workload " ^ get "workload");
            exit 2
      in
      let seed = int_of_string (get "seed") and seconds = float_of_string (get "seconds") in
      let trace = get "trace" = "1" in
      match cmd with
      | "run" -> run_main w ~seed ~seconds ~trace
      | _ -> client w ~seed ~seconds ~trace ~port:(int_of_string (get "port")))
  | _ -> usage ()
