(* Tests of the benchmark's own arithmetic.  With --smoke (the
   perfbench smoke alias, see dune), instead a tiny run of each workload
   that must pass the program's end-of-run checks (every output
   verified, fd count back to baseline, only the root ULP alive, no job
   file left). *)

module Stats = Perfbench_core.Stats
module Spans = Perfbench_core.Spans

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let close_to a b = Float.abs (a -. b) < 1e-9

(* ---------- percentiles and the tail rule ---------- *)

let test_percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..100 is 50" (Stats.percentile xs 50. = 50.);
  check "p90 of 1..100 is 90" (Stats.percentile xs 90. = 90.);
  check "p99 of 1..100 is 99" (Stats.percentile xs 99. = 99.);
  check "p100 of 1..100 is 100" (Stats.percentile xs 100. = 100.);
  check "p0 clamps to the minimum" (Stats.percentile xs 0. = 1.);
  check "percentile of nothing is nan" (Float.is_nan (Stats.percentile [||] 50.));
  check "sorted_of_list sorts" (Stats.sorted_of_list [ 3.; 1.; 2. ] = [| 1.; 2.; 3. |]);
  let tail n = Stats.tail_percentile n in
  check "19 samples support no percentile" (tail 19 = None);
  check "20 samples support p50 (10 beyond)" (tail 20 = Some 50.);
  check "999 samples: p99 has 9 beyond, so p90" (tail 999 = Some 90.);
  check "1000 samples support p99 (10 beyond)" (tail 1000 = Some 99.);
  check "9999 samples: p99.9 has 9 beyond, so p99" (tail 9999 = Some 99.);
  check "10000 samples support p99.9" (tail 10000 = Some 99.9);
  check "100000 samples support p99.99" (tail 100000 = Some 99.99)

(* ---------- windowed throughput ---------- *)

let test_windowed_rate () =
  (* 10 events in [0, 1), 30 in [1, 2), 20 in [2, 3), 5 in [3, 4) and
     one outside: the upper quartile of the four window rates *)
  let times =
    (-1. :: List.init 10 (fun i -> float_of_int i /. 10.))
    @ List.init 30 (fun i -> 1. +. (float_of_int i /. 30.))
    @ List.init 20 (fun i -> 2. +. (float_of_int i /. 20.))
    @ List.init 5 (fun i -> 3. +. (float_of_int i /. 10.))
  in
  check "rate: upper quartile over the windows" (Stats.windowed_rate ~lo:0. ~hi:4. ~width:1. times = 20.);
  check "rate: windows are a whole number" (Stats.windowed_rate ~lo:0. ~hi:4. ~width:2.5 times = 16.25);
  check "rate: an empty interval has none"
    (Float.is_nan (Stats.windowed_rate ~lo:1. ~hi:1. ~width:1. []))

(* ---------- self time ---------- *)

let test_self_time () =
  (* parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12]
     outlives the parent, [20, 21] lies outside it: covered = [1, 6] +
     [8, 10] = 7, so self = 3 *)
  let kids = [ (1., 4.); (3., 6.); (8., 12.); (20., 21.) ] in
  check "self time subtracts the union of overlapping children"
    (close_to (Stats.self_time ~start:0. ~stop:10. kids) 3.);
  check "a child nested in another counts once"
    (close_to (Stats.self_time ~start:0. ~stop:10. [ (2., 8.); (3., 4.) ]) 4.);
  check "no children: self time is the duration"
    (close_to (Stats.self_time ~start:2. ~stop:5. []) 3.);
  let sp name id parent op t0 t1 = { Spans.name; id; parent; op; t0; t1 } in
  let tree =
    [|
      sp "root" 0 (-1) 7 0. 10e-6;
      sp "a" 1 0 (-1) 1e-6 4e-6;
      sp "b" 2 0 (-1) 3e-6 6e-6;
      sp "a.child" 3 1 (-1) 2e-6 3e-6;
      sp "c" 4 0 (-1) 8e-6 12e-6;
    |]
  in
  let self = Spans.self_times_us tree "root" in
  check "span tree: root self time is 3 us"
    (Array.length self = 1 && Float.abs (self.(0) -. 3.) < 1e-6);
  let a_self = Spans.self_times_us tree "a" in
  check "span tree: a's self time excludes its own child"
    (Array.length a_self = 1 && Float.abs (a_self.(0) -. 2.) < 1e-6);
  let resolved = Spans.resolve_ops tree in
  check "every span of the op inherits its id"
    (Array.for_all (fun (s : Spans.t) -> s.op = 7) resolved)

(* ---------- the Poisson schedule ---------- *)

let test_poisson () =
  let a = Stats.poisson ~seed:42 ~stream:3 ~rate:1000. ~duration:2. in
  let b = Stats.poisson ~seed:42 ~stream:3 ~rate:1000. ~duration:2. in
  let c = Stats.poisson ~seed:43 ~stream:3 ~rate:1000. ~duration:2. in
  let d = Stats.poisson ~seed:42 ~stream:4 ~rate:1000. ~duration:2. in
  check "same seed and stream: identical schedule" (a = b);
  check "another seed: another schedule" (a <> c);
  check "another stream: another schedule" (a <> d);
  let n = Array.length a in
  check "about rate x duration arrivals" (n > 1800 && n < 2200);
  check "ascending, inside the window"
    (Array.for_all (fun t -> t >= 0. && t < 2.) a
    && snd (Array.fold_left (fun (prev, ok) t -> (t, ok && t >= prev)) (0., true) a));
  check "rate 0 schedules nothing"
    (Stats.poisson ~seed:1 ~stream:0 ~rate:0. ~duration:1. = [||])

(* ---------- smoke runs ---------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let smoke workload trace =
  let args =
    [|
      "./perfbench.exe"; "run"; "--workload"; workload; "--seed"; "7"; "--seconds"; "0.6";
      "--trace"; (if trace then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in args.(0) args in
  let out = In_channel.input_all ic in
  let st = Unix.close_process_in ic in
  let name = Printf.sprintf "smoke %s trace=%b" workload trace in
  check (name ^ ": exit 0") (st = Unix.WEXITED 0);
  check (name ^ ": outputs correct") (contains out "\"correct\": true");
  check (name ^ ": no leaks") (contains out "\"leaks\": []");
  check (name ^ ": ops attempted") (not (contains out "\"attempted\": 0,"));
  if !failures > 0 then print_string out

let () =
  if Array.mem "--smoke" Sys.argv then begin
    List.iter (fun w -> smoke w false) [ "echo_keepalive"; "ulp_per_conn"; "ulp_jobs" ];
    smoke "ulp_jobs" true
  end
  else begin
    test_percentiles ();
    test_windowed_rate ();
    test_self_time ();
    test_poisson ()
  end;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
