(* The benchmark's own arithmetic: percentiles, the tail rule, the
   seeded Poisson arrival schedule and span self time.  Kept free of the
   runtime so the test suite can check it by hand. *)

(* The 1-based nearest rank of the [p]th percentile of [n] samples.  The
   small slack keeps a product like 99.9% of 10000 (9990.000000000002 in
   floating point) from rounding up to the next rank. *)
let rank n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p]% of the samples at or below it.  [nan] when
   empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(max 0 (min (n - 1) (rank n p - 1)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The percentiles the benchmark may report, lowest first. *)
let ladder = [ 50.; 90.; 99.; 99.9; 99.99 ]

(* The tail rule: the highest ladder percentile of [n] samples with at
   least 10 samples strictly above its nearest rank, i.e. the highest
   percentile the sample actually supports.  [None] when not even the
   median qualifies. *)
let tail_percentile n =
  List.fold_left (fun acc p -> if n - rank n p >= 10 then Some p else acc) None ladder

(* Poisson arrivals at [rate] per second over [0, duration): the
   offsets (seconds from the window start) of the arrivals, ascending.
   The same (seed, stream) always yields the same schedule; distinct
   streams give independent ones. *)
let poisson ~seed ~stream ~rate ~duration =
  let st = Random.State.make [| seed; stream |] in
  let rec go t acc =
    let t = t -. (Float.log (1. -. Random.State.float st 1.) /. rate) in
    if t < duration then go t (t :: acc) else Array.of_list (List.rev acc)
  in
  if rate <= 0. then [||] else go 0. []

(* Self time of a span [start, stop]: its duration minus the part of
   that interval covered by its children.  Children may overlap each
   other (a parent that spawned concurrent work) and may outlive the
   parent; only the union of their intervals clipped to the parent
   counts. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0., start) clipped
  in
  stop -. start -. covered

(* Events per second over [lo, hi): the upper quartile of the rates in
   windows of about [width] seconds (a whole number of them, at least
   one).  A window in which the host descheduled a vCPU, or a GC paused
   the program, runs slow; the upper quartile is the rate the program
   keeps up while it has the CPUs, and moves little with such stalls. *)
let windowed_rate ~lo ~hi ~width times =
  if hi <= lo then nan
  else begin
    let n = max 1 (int_of_float ((hi -. lo) /. width)) in
    let width = (hi -. lo) /. float_of_int n in
    let counts = Array.make n 0 in
    List.iter
      (fun t ->
        let w = int_of_float (Float.floor ((t -. lo) /. width)) in
        if w >= 0 && w < n then counts.(w) <- counts.(w) + 1)
      times;
    percentile (sorted_of_list (Array.to_list (Array.map (fun c -> float_of_int c /. width) counts))) 75.
  end
