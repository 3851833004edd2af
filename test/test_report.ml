(* Tests for the reporting helpers: ASCII tables, CSV escaping, the
   terminal plots used by the figure harness, the JSON printer, and the
   BENCH-file engine's validate and --diff verdicts. *)

module Table = Report.Table
module Csv = Report.Csv
module Plot = Report.Ascii_plot

(* naive substring check, good enough for tests *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains s needle =
  if not (contains s needle) then Alcotest.failf "missing %S in output" needle

(* ---------- table ---------- *)

let test_table_renders_all_cells () =
  let t =
    Table.create ~title:"T" ~headers:[ "name"; "value" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "beta"; "22" ];
  let s = Table.render t in
  List.iter (check_contains s) [ "T"; "name"; "value"; "alpha"; "beta"; "22" ]

let test_table_rejects_bad_row () =
  let t = Table.create ~title:"T" ~headers:[ "a"; "b" ] () in
  match Table.add_row t [ "only-one" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "wrong arity accepted"

let test_table_rejects_bad_aligns () =
  match Table.create ~title:"T" ~headers:[ "a"; "b" ] ~aligns:[ Table.Left ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad aligns accepted"

let test_table_column_width_consistent () =
  let t = Table.create ~title:"T" ~headers:[ "h" ] () in
  Table.add_row t [ "short" ];
  Table.add_row t [ "a much longer cell" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 && l.[0] = '|' then Some (String.length l) else None)
      lines
  in
  match widths with
  | [] -> Alcotest.fail "no rows rendered"
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "aligned" w w') rest

let test_sci_format () =
  Alcotest.(check string) "sci" "1.50E-07" (Table.sci 1.50e-7);
  Alcotest.(check string) "nan" "-" (Table.sci Float.nan);
  Alcotest.(check string) "fixed" "3.1" (Table.fixed ~digits:1 3.14159)

(* ---------- csv ---------- *)

let test_csv_plain () =
  Alcotest.(check string) "simple" "a,b\n1,2\n"
    (Csv.to_string ~headers:[ "a"; "b" ] [ [ "1"; "2" ] ])

let test_csv_escaping () =
  let s = Csv.row_to_string [ "has,comma"; "has\"quote"; "plain" ] in
  Alcotest.(check string) "escaped" "\"has,comma\",\"has\"\"quote\",plain" s

let test_csv_newline_escaped () =
  let s = Csv.row_to_string [ "two\nlines" ] in
  Alcotest.(check string) "quoted" "\"two\nlines\"" s

let test_csv_file_roundtrip () =
  let path = Filename.temp_file "ulp" ".csv" in
  Csv.write_file path ~headers:[ "x" ] [ [ "1" ]; [ "2" ] ];
  let ic = open_in path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "content" "x\n1\n2\n" content

(* ---------- plot ---------- *)

let test_plot_renders_series () =
  let s =
    Plot.render ~title:"demo"
      [
        Plot.series ~label:"up" ~glyph:'u' [ (1.0, 1.0); (2.0, 2.0); (4.0, 3.0) ];
        Plot.series ~label:"down" ~glyph:'d' [ (1.0, 3.0); (2.0, 2.0); (4.0, 1.0) ];
      ]
  in
  List.iter (check_contains s) [ "demo"; "u = up"; "d = down" ];
  Alcotest.(check bool) "has glyphs" true (contains s "u" && contains s "d")

let test_plot_empty () =
  Alcotest.(check string) "empty" "(empty plot)\n" (Plot.render [])

let test_plot_flat_series_no_crash () =
  let s = Plot.render [ Plot.series ~label:"flat" ~glyph:'f' [ (1.0, 5.0); (2.0, 5.0) ] ] in
  check_contains s "f = flat"

let test_plot_size_labels () =
  let s =
    Plot.render
      [ Plot.series ~label:"x" ~glyph:'x' [ (1024.0, 1.0); (1048576.0, 2.0) ] ]
  in
  check_contains s "1K";
  check_contains s "1M"

(* ---------- timeline ---------- *)

module Timeline = Report.Timeline

let test_timeline_lanes_and_legend () =
  let s =
    Timeline.render
      [
        Timeline.event ~time:0.0 ~actor:"kc0" ~tag:"start";
        Timeline.event ~time:1.0 ~actor:"kc1" ~tag:"work";
        Timeline.event ~time:2.0 ~actor:"kc0" ~tag:"stop";
      ]
  in
  List.iter (check_contains s)
    [ "kc0"; "kc1"; "a = start"; "b = work"; "c = stop" ]

let test_timeline_empty () =
  Alcotest.(check string) "empty" "(empty timeline)\n" (Timeline.render [])

let test_timeline_single_instant () =
  (* zero time span must not divide by zero *)
  let s =
    Timeline.render [ Timeline.event ~time:5.0 ~actor:"x" ~tag:"only" ]
  in
  check_contains s "a = only"

let test_timeline_collision_marker () =
  let s =
    Timeline.render ~width:4
      [
        Timeline.event ~time:0.0 ~actor:"x" ~tag:"one";
        Timeline.event ~time:0.0 ~actor:"x" ~tag:"two";
      ]
  in
  check_contains s "*"

(* ---------- json printer ---------- *)

module Json = Report.Json
module Bf = Report.Bench_file

let roundtrip v =
  let text = Json.print v in
  if Json.parse text <> v then Alcotest.failf "%S does not read back" text

let test_json_escapes () =
  List.iter
    (fun s -> roundtrip (Json.Str s))
    [ ""; "plain"; "quote\" and \\ backslash"; "new\nline\r\ttab";
      "\001\008\012\031 controls"; "\127 del"; "utf-8 \xc3\xa9\xe2\x82\xac" ];
  (* the parser reads raw control bytes too, so pin the escaped text *)
  Alcotest.(check string) "escaped" {|"q\" b\\ n\n r\r t\t \u0001"|}
    (String.trim (Json.print (Json.Str "q\" b\\ n\n r\r t\t \001")))

let test_json_numbers () =
  List.iter
    (fun (f, text) ->
      Alcotest.(check string) text (text ^ "\n") (Json.print (Json.Num f));
      roundtrip (Json.Num f))
    [ (3.0, "3"); (-0.5, "-0.5"); (0.015676022, "0.015676022"); (0.1, "0.1");
      (1e-7, "1e-07"); (1024.0, "1024"); (1e300, "1e+300") ];
  List.iter
    (fun f -> roundtrip (Json.Num f))
    [ 1.0 /. 3.0; Float.pi; 123456789012345678.0; -2.5e-300;
      4503599627370497.0 ];
  List.iter
    (fun f ->
      match Json.print (Json.Num f) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "non-finite %g printed as %S" f s)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_layout () =
  let v =
    Json.Obj
      [ ("schema", Json.Str "x/v1");
        ("tags", Json.List [ Json.Str "a"; Json.Null ]);
        ("rows", Json.List [ Json.Obj [ ("k", Json.Bool true) ]; Json.Obj [] ]);
        ("empty", Json.List []) ]
  in
  roundtrip v;
  Alcotest.(check string) "one member and one row per line"
    "{\n  \"schema\": \"x/v1\",\n  \"tags\": [\"a\", null],\n  \"rows\": [\n\
    \    {\"k\": true},\n    {}\n  ],\n  \"empty\": []\n}\n"
    (Json.print v)

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json print reads back" ~count:200
    QCheck.(pair string float)
    (fun (s, f) ->
      QCheck.assume (Float.is_finite f);
      let v = Json.Obj [ (s, Json.List [ Json.Str s; Json.Num f ]) ] in
      Json.parse (Json.print v) = v)

(* ---------- BENCH files: validate and --diff ---------- *)

let load path =
  match Json.parse_file path with Ok d -> d | Error m -> Alcotest.fail m

(* the committed files: one level up under dune runtest, here under
   dune exec from the repo root *)
let committed f = if Sys.file_exists ("../" ^ f) then "../" ^ f else f

(* The fixtures and --diff cases start from this directory's own copies
   of those files (test/fixtures/bench), so a bench run that rewrites
   the files in the working tree cannot move them. *)
let fixture f =
  let here = Filename.concat "fixtures/bench" f in
  if Sys.file_exists here then here else Filename.concat "test" here

let parallel () = load (fixture "parallel.json")
let net () = load (fixture "net.json")
let n f = Json.Num f
let str s = Json.Str s

let map_obj f = function Json.Obj kvs -> Json.Obj (f kvs) | v -> v

let set_top k v =
  map_obj (List.map (fun (k', v') -> (k', if k' = k then v else v')))

(* apply [f] to section [sec]'s rows *)
let rows sec f =
  map_obj
    (List.map (fun (k, v) ->
         match v with
         | Json.List l when k = sec -> (k, Json.List (f l))
         | _ -> (k, v)))

let matches sel r = List.for_all (fun (k, v) -> Json.member k r = Some v) sel
let drop sec sel = rows sec (List.filter (fun r -> not (matches sel r)))

(* set field [k] of every row of [sec] matching [sel] *)
let set ?(sec = "results") sel k v =
  rows sec (List.map (fun r -> if matches sel r then set_top k v r else r))

let expect_invalid suite needle doc =
  match Bf.validate suite doc with
  | Ok s -> Alcotest.failf "accepted a fixture that breaks %S: %s" needle s
  | Error m ->
      if not (contains m needle) then Alcotest.failf "%S, expected %S" m needle

let test_committed_files_valid () =
  List.iter
    (fun (suite, path) ->
      let doc = load path in
      (match Bf.validate suite doc with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s: %s" (Bf.file suite) m);
      (* the printer keeps the committed layout: one line per row *)
      let lines s = List.length (String.split_on_char '\n' s) in
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check int) path (lines text) (lines (Json.print doc)))
    [ (Bf.Parallel.suite, committed "BENCH_parallel.json");
      (Bf.Net.suite, committed "BENCH_net.json") ]

let pp name d = [ ("name", str name); ("domains", n d) ]

(* the committed file predates the host-stall probe: add its columns *)
let with_probe =
  rows "coupled_busy"
    (List.map (fun r ->
         match r with
         | Json.Obj kvs ->
             Json.Obj
               (kvs @ [ ("host_stalls_per_s", n 0.0);
                        ("host_stall_max_s", n 0.0) ])
         | v -> v))

(* each fixture breaks one check of the committed parallel file *)
let parallel_fixtures =
  [
    ("unexpected schema", set_top "schema" (str "ulp-pip/parallel-bench/v3"));
    ("host_cores", set_top "host_cores" (n 0.0));
    ("missing/empty results", rows "results" (fun _ -> []));
    ("missing/bad \"p99_s\"", set (pp "spawn_join" 1.) "p99_s" Json.Null);
    ( "steal_fail_rate > 1",
      set (pp "spawn_join" 2.) "steal_fail_rate" (n 1.01) );
    ("outside [1, 2]", set (pp "spawn_join" 2.) "active_workers_p50" (n 3.0));
    ( "oversubscribed flag",
      set (pp "spawn_join" 2.) "oversubscribed" (Json.Bool true) );
    (* 1.35 x 8.52 ms + 0.5 ms = 12.0 ms *)
    ("ping_pong@4: median_s", set (pp "ping_pong" 4.) "median_s" (n 0.0121));
    ("speedups missing yield_storm@2", drop "speedups" (pp "yield_storm" 2.));
    ( "missing proc row proc_spawn_fiber_base@1",
      drop "results" [ ("name", str "proc_spawn_fiber_base") ] );
    ("needs >= 1000", set (pp "proc_spawn" 1.) "items" (n 999.0));
    (* 3.5 x 106 ms = 371 ms *)
    ("fd-table indirection", set (pp "proc_fd_table" 1.) "median_s" (n 0.372));
    ("missing coupled_busy@2", drop "coupled_busy" [ ("domains", n 2.) ]);
    ( "fewer than 10 beyond the p99",
      set ~sec:"coupled_busy" [ ("domains", n 1.) ] "calls" (n 999.) );
    ( "percentiles not monotone",
      set ~sec:"coupled_busy" [ ("domains", n 1.) ] "max_s" (n 0.0) );
    ( "waited for its worker's runtime lock",
      fun d ->
        let cb k = set ~sec:"coupled_busy" [ ("domains", n 2.) ] k (n 0.0011) in
        cb "p99_s" (cb "max_s" d) );
    (* with the host probe in the row, the failure names whose it is *)
    ( "longest 0.003000 s -- reads as host",
      fun d ->
        let cb k v = set ~sec:"coupled_busy" [ ("domains", n 2.) ] k (n v) in
        cb "p99_s" 0.0011 (cb "max_s" 0.004 (cb "host_stalls_per_s" 7.0
          (cb "host_stall_max_s" 0.003 (with_probe d)))) );
    ( "longest 0.000600 s -- reads as runtime",
      fun d ->
        let cb k v = set ~sec:"coupled_busy" [ ("domains", n 2.) ] k (n v) in
        cb "p99_s" 0.0011 (cb "max_s" 0.004 (cb "host_stalls_per_s" 1.0
          (cb "host_stall_max_s" 0.0006 (with_probe d)))) );
    ( "coupled_busy row with missing/bad \"host_stall_max_s\"",
      fun d ->
        set ~sec:"coupled_busy" [ ("domains", n 1.) ] "host_stall_max_s"
          (n (-1.0)) (with_probe d) );
  ]

let nc c a = [ ("connections", n c); ("active", n a) ]

let net_fixtures =
  [
    ("unexpected schema", set_top "schema" (str "ulp-pip/net-bench/v2"));
    ("active of", set (nc 10000. 100.) "active" (n 10001.0));
    ("some client died", set (nc 256. 256.) "requests" (n 5119.0));
    ("not monotone", set (nc 256. 256.) "p50_s" (n 0.5));
    ("zero throughput", set (nc 256. 256.) "req_per_s" (n 0.0));
    ("accepted fewer", set (nc 64. 64.) "accepted" (n 63.0));
    ("max_active 56", set (nc 256. 256.) "max_active" (n 56.0));
    ( ">= 1000 concurrent",
      rows "results"
        (List.filter (fun r -> Json.member "connections" r < Some (n 1000.)))
    );
    (* 25 x 34.2 ms = 855 ms *)
    ( "the tail is not scaling",
      fun d ->
        set (nc 10000. 10000.) "p99_s" (n 0.86)
          (set (nc 10000. 10000.) "max_s" (n 0.86) d) );
    ("fd leak", set_top "fd_after" (n 5.0));
  ]

let test_validate_fixtures () =
  (* just inside the thresholds: the oversubscription slack and the
     tail ratio are allowed *)
  List.iter
    (fun (suite, doc) ->
      match Bf.validate suite doc with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "near miss rejected: %s" m)
    [ (Bf.Parallel.suite,
       set (pp "ping_pong" 4.) "median_s" (n 0.0119) (parallel ()));
      (Bf.Parallel.suite,
       let cb k = set ~sec:"coupled_busy" [ ("domains", n 2.) ] k (n 0.001) in
       cb "p99_s" (cb "max_s" (parallel ())));
      (Bf.Net.suite,
       set (nc 10000. 10000.) "p99_s" (n 0.85)
         (set (nc 10000. 10000.) "max_s" (n 0.85) (net ()))) ];
  List.iter
    (fun (suite, doc, fixtures) ->
      List.iter
        (fun (needle, break) -> expect_invalid suite needle (break doc))
        fixtures)
    [ (Bf.Parallel.suite, parallel (), parallel_fixtures);
      (Bf.Net.suite, net (), net_fixtures) ]

(* One failing row hides no other: two oversubscribed rows over their
   bound are both named, one line each. *)
let test_validate_every_violation () =
  (* 1.35 x 8.52 ms + 0.5 ms = 12.0 ms; 1.35 x 1.28 ms + 0.5 ms = 2.2 ms *)
  let doc =
    set (pp "ping_pong" 4.) "median_s" (n 0.0121)
      (set (pp "sync_mutex_park" 4.) "median_s" (n 0.0023) (parallel ()))
  in
  match Bf.validate Bf.Parallel.suite doc with
  | Ok s -> Alcotest.failf "accepted two rows over their bound: %s" s
  | Error m ->
      List.iter
        (fun row ->
          if not (contains m row) then Alcotest.failf "%S does not name %s" m row)
        [ "ping_pong@4: median_s"; "sync_mutex_park@4: median_s" ];
      Alcotest.(check int) "one line per violation" 2
        (List.length (String.split_on_char '\n' m))

let test_diff_speedup_gate () =
  let old = parallel () in
  let speedup v =
    set ~sec:"speedups" (pp "spawn_join" 2.) "speedup_vs_1" (n v) old
  in
  let diff ~cores doc = Bf.diff Bf.Parallel.suite ~cores ~old doc in
  (match diff ~cores:2 old with
  | Ok Bf.Pass -> ()
  | _ -> Alcotest.fail "self-diff must pass");
  (* median_s is report-only; 0.90 / 1.1185 = 0.805 clears the 0.8x
     floor and 0.89 / 1.1185 = 0.796 does not *)
  let slower = set (pp "spawn_join" 2.) "median_s" (n 10.0) (speedup 0.90) in
  (match diff ~cores:2 slower with
  | Ok Bf.Pass -> ()
  | _ -> Alcotest.fail "a report-only drop must pass");
  (match diff ~cores:2 (speedup 0.89) with
  | Ok (Bf.Regressed [ m ]) when contains m "spawn_join@2" -> ()
  | _ -> Alcotest.fail "0.796x the old speedup must regress on 2 cores");
  match diff ~cores:1 (speedup 0.89) with
  | Ok (Bf.Warn [ _ ]) -> ()
  | _ -> Alcotest.fail "a 1-core host only warns"

(* proc_fd_table's domains=1 and domains=2 medians, and the @2 speedup
   the file derives from them *)
let fd_pair m1 m2 doc =
  let median d m = set (pp "proc_fd_table" d) "median_s" (n m) in
  median 1. m1
    (median 2. m2
       (set ~sec:"speedups" (pp "proc_fd_table" 2.) "speedup_vs_1"
          (n (m1 /. m2)) doc))

let test_diff_speedup_own_median () =
  let old = fd_pair 0.504 0.280 (parallel ()) in
  let diff doc = Bf.diff Bf.Parallel.suite ~cores:2 ~old (doc (parallel ())) in
  (* @1 504 -> 271 ms and @2 280 -> 232 ms: the speedup falls 1.80x ->
     1.17x because domains=1 got faster, yet every row is faster *)
  (match diff (fd_pair 0.271 0.232) with
  | Ok Bf.Pass -> ()
  | _ -> Alcotest.fail "a domains=1 gain read as an @2 regression");
  (* the same medians from a smaller run (--quick against a full file)
     say nothing about speed: the gate holds *)
  (match
     diff (fun d ->
         set (pp "proc_fd_table" 2.) "items" (n 1000.) (fd_pair 0.271 0.232 d))
   with
  | Ok (Bf.Regressed [ m ]) when contains m "proc_fd_table@2" -> ()
  | _ -> Alcotest.fail "a faster row of another size excused a drop");
  List.iter
    (fun (why, m1, m2) ->
      match diff (fd_pair m1 m2) with
      | Ok (Bf.Regressed [ m ]) when contains m "proc_fd_table@2" -> ()
      | _ -> Alcotest.failf "%s must regress" why)
    [ (* 1.80x -> 1.33x, @2 slower in absolute time *)
      ("a slower @2 row", 0.400, 0.300);
      (* 1.80x -> 1.26x with @1 flat *)
      ("a scaling loss with a flat @1", 0.504, 0.400);
      (* 1.80x -> 1.40x, @2 exactly as fast as before *)
      ("an @2 row that got no faster", 0.392, 0.280) ]

let test_diff_schema () =
  let wrong suite ~old doc =
    match Bf.diff suite ~cores:2 ~old doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s diffed another suite's file" (Bf.file suite)
  in
  wrong Bf.Parallel.suite ~old:(net ()) (parallel ());
  wrong Bf.Net.suite ~old:(parallel ()) (net ())

(* the writer and the validator agree: a doc built from rows passes *)
let test_written_docs_valid () =
  let row name : Bf.Parallel.result =
    { name; domains = 1; oversubscribed = false; items = 1000; reps = 3;
      median_s = 0.01; p99_s = 0.012; median_throughput_per_s = 1e5;
      steals = 0; steal_fail_rate = 0.0; parks = 0; wakes = 0; inj_drains = 1;
      active_workers_p50 = 1 }
  in
  let rs =
    List.map row
      [ "proc_spawn"; "proc_spawn_fiber_base"; "proc_fd_table";
        "proc_fd_direct" ]
  in
  let coupled domains : Bf.Parallel.coupled =
    { domains; calls = Bf.Parallel.coupled_calls; idle_p50_s = 20e-6;
      p50_s = 40e-6; p99_s = 80e-6; max_s = 0.0002; host_stalls_per_s = 6.0;
      host_stall_max_s = 0.0021 }
  in
  let pdoc =
    Bf.Parallel.doc ~host_cores:2 ~quick:true ~warmup:1 rs
      [ coupled 1; coupled 2 ]
  in
  let point c : Bf.Net.result =
    { connections = c; active = c; reqs_per_conn = 5; requests = 5 * c;
      elapsed_s = 0.5; p50_s = 0.001; p99_s = 0.002; max_s = 0.003;
      accepted = c; max_active = c }
  in
  let ndoc =
    Bf.Net.doc ~host_cores:2 ~quick:true ~backend:"epoll" ~msg_bytes:64
      ~fd_baseline:(Some 4) ~fd_after:None [ point 100; point 1000 ]
  in
  List.iter
    (fun (suite, doc) ->
      match Bf.validate suite (Json.parse (Json.print doc)) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s: %s" (Bf.file suite) m)
    [ (Bf.Parallel.suite, pdoc); (Bf.Net.suite, ndoc) ]

(* ---------- properties ---------- *)

let prop_csv_field_count_preserved =
  QCheck.Test.make ~name:"csv keeps one line per row" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 10) (list_of_size (Gen.int_range 1 4) printable_string))
    (fun rows ->
      (* normalize: line breaks inside fields become spaces *)
      let clean c = if c = '\n' || c = '\r' then ' ' else c in
      let rows = List.map (List.map (String.map clean)) rows in
      QCheck.assume (List.for_all (fun r -> r <> []) rows);
      let widths = List.map List.length rows in
      match List.sort_uniq compare widths with
      | [ w ] when w > 0 ->
          let headers = List.init w (fun i -> Printf.sprintf "h%d" i) in
          let s = Csv.to_string ~headers rows in
          (* the writer terminates with a newline: line count = splits - 1 *)
          List.length (String.split_on_char '\n' s) - 1 = List.length rows + 1
      | _ -> QCheck.assume_fail ())

let prop_table_render_never_raises =
  QCheck.Test.make ~name:"table renders any cell strings" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 6) (pair printable_string printable_string))
    (fun rows ->
      let t = Table.create ~title:"p" ~headers:[ "a"; "b" ] () in
      List.iter
        (fun (a, b) ->
          let clean s = String.map (fun c -> if c = '\n' then ' ' else c) s in
          Table.add_row t [ clean a; clean b ])
        rows;
      String.length (Table.render t) > 0)

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "renders cells" `Quick test_table_renders_all_cells;
          Alcotest.test_case "rejects bad row" `Quick test_table_rejects_bad_row;
          Alcotest.test_case "rejects bad aligns" `Quick
            test_table_rejects_bad_aligns;
          Alcotest.test_case "column widths" `Quick
            test_table_column_width_consistent;
          Alcotest.test_case "sci format" `Quick test_sci_format;
        ] );
      ( "csv",
        [
          Alcotest.test_case "plain" `Quick test_csv_plain;
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "newline" `Quick test_csv_newline_escaped;
          Alcotest.test_case "file roundtrip" `Quick test_csv_file_roundtrip;
        ] );
      ( "plot",
        [
          Alcotest.test_case "renders series" `Quick test_plot_renders_series;
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "flat series" `Quick test_plot_flat_series_no_crash;
          Alcotest.test_case "size labels" `Quick test_plot_size_labels;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "lanes and legend" `Quick
            test_timeline_lanes_and_legend;
          Alcotest.test_case "empty" `Quick test_timeline_empty;
          Alcotest.test_case "single instant" `Quick
            test_timeline_single_instant;
          Alcotest.test_case "collision marker" `Quick
            test_timeline_collision_marker;
        ] );
      ( "json",
        [
          Alcotest.test_case "escapes round-trip" `Quick test_json_escapes;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "layout" `Quick test_json_layout;
        ] );
      ( "bench-file",
        [
          Alcotest.test_case "committed files valid" `Quick
            test_committed_files_valid;
          Alcotest.test_case "validate fixtures" `Quick test_validate_fixtures;
          Alcotest.test_case "validate reports every violation" `Quick
            test_validate_every_violation;
          Alcotest.test_case "diff speedup gate" `Quick test_diff_speedup_gate;
          Alcotest.test_case "diff speedup gate reads the row's median" `Quick
            test_diff_speedup_own_median;
          Alcotest.test_case "diff schema check" `Quick test_diff_schema;
          Alcotest.test_case "written docs valid" `Quick
            test_written_docs_valid;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_csv_field_count_preserved;
          QCheck_alcotest.to_alcotest prop_table_render_never_raises;
        ] );
    ]
