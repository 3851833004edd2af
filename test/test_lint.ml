(* ulplint's own test suite.

   Each rule gets a known-good / known-bad fixture pair (plus a
   waivered bad fixture) under test/fixtures/lint -- a directory the
   lint's default walk skips precisely because it is deliberately
   dirty.  The suite then points the lint at lib/check to prove it
   re-detects the seeded interleaving bugs statically, and finally
   self-checks the repo: the shipped tree must be lint-clean.

   Tests execute from _build/default/test; we chdir to the build root
   (the nearest ancestor holding dune-project) so the driver's relative
   roots resolve.  That root's lib/check also holds the materialized
   copy_files# sources, which is exactly what a source checkout looks
   like to the lint. *)

module Driver = Lint.Driver
module Finding = Lint.Finding

let find_root () =
  let rec go dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then failwith "test_lint: no dune-project above cwd"
      else go parent
  in
  go (Sys.getcwd ())

let () = Sys.chdir (find_root ())

let fx sub = "test/fixtures/lint/" ^ sub

(* findings of [rule] in [file], unwaived unless [waived] *)
let hits ?(waived = false) report ~file ~rule =
  List.filter
    (fun (f : Finding.t) ->
      f.rule = rule && f.file = file && (f.waived <> None) = waived)
    report.Driver.findings

let check_n ?waived report ~file ~rule n =
  Alcotest.(check int)
    (Printf.sprintf "%s: %d %s%s finding(s)" file n rule
       (match waived with Some true -> " waived" | _ -> ""))
    n
    (List.length (hits ?waived report ~file ~rule))

(* ---------- blocking-in-fiber ---------- *)

let test_blocking () =
  let r = Driver.run ~roots:[ fx "lib/fiber_rt" ] () in
  let rule = "blocking-in-fiber" in
  (* read, Thread.delay, select, gettimeofday, Parker.park *)
  check_n r ~file:(fx "lib/fiber_rt/bf_bad.ml") ~rule 5;
  check_n r ~file:(fx "lib/fiber_rt/bf_good.ml") ~rule 0;
  check_n r ~file:(fx "lib/fiber_rt/bf_waived.ml") ~rule 0;
  check_n ~waived:true r ~file:(fx "lib/fiber_rt/bf_waived.ml") ~rule 1

(* ---------- raw-mutex-in-fiber ---------- *)

let test_raw_mutex () =
  let r = Driver.run ~roots:[ fx "lib/fiber_rt" ] () in
  let rule = "raw-mutex-in-fiber" in
  (* Mutex.lock, Condition.wait, Stdlib.Mutex.lock -- but never the
     non-parking unlock/signal *)
  check_n r ~file:(fx "lib/fiber_rt/rm_bad.ml") ~rule 3;
  (* a file defining its own Mutex/Condition (the sync.ml shape) is
     exempt *)
  check_n r ~file:(fx "lib/fiber_rt/rm_good.ml") ~rule 0;
  check_n r ~file:(fx "lib/fiber_rt/rm_waived.ml") ~rule 0;
  check_n ~waived:true r ~file:(fx "lib/fiber_rt/rm_waived.ml") ~rule 1

(* ---------- atomic-get-then-set ---------- *)

let test_get_then_set () =
  let r = Driver.run ~roots:[ fx "ags" ] () in
  let rule = "atomic-get-then-set" in
  (* one finding: bump.  bump_cb's set lives in a nested frame and the
     rule is deliberately per-frame *)
  check_n r ~file:(fx "ags/ags_bad.ml") ~rule 1;
  check_n r ~file:(fx "ags/ags_good.ml") ~rule 0;
  check_n r ~file:(fx "ags/ags_waived.ml") ~rule 0;
  check_n ~waived:true r ~file:(fx "ags/ags_waived.ml") ~rule 1

(* ---------- atomic-check-then-faa ---------- *)

let test_check_then_faa () =
  let r = Driver.run ~roots:[ fx "ctf" ] () in
  let rule = "atomic-check-then-faa" in
  (* two: the pre-CAS accept loop's fetch_and_add, and the incr after a
     let-bound read *)
  check_n r ~file:(fx "ctf/ctf_bad.ml") ~rule 2;
  check_n r ~file:(fx "ctf/ctf_good.ml") ~rule 0;
  check_n r ~file:(fx "ctf/ctf_waived.ml") ~rule 0;
  check_n ~waived:true r ~file:(fx "ctf/ctf_waived.ml") ~rule 1;
  (* the sibling rule does not double-report: no set, no get-then-set *)
  check_n r ~file:(fx "ctf/ctf_bad.ml") ~rule:"atomic-get-then-set" 0

(* ---------- syscall-consistency ---------- *)

let test_syscall () =
  let r = Driver.run ~roots:[ fx "lib" ] () in
  let rule = "syscall-consistency" in
  (* sim stack: any host syscall *)
  check_n r ~file:(fx "lib/sim/sc_sim_bad.ml") ~rule 1;
  (* fiber code: thread-keyed syscall outside coupled *)
  check_n r ~file:(fx "lib/fiber_rt/sc_fiber_bad.ml") ~rule 1;
  check_n r ~file:(fx "lib/fiber_rt/sc_fiber_good.ml") ~rule 0

(* ---------- raw-fd-in-proc ---------- *)

let test_raw_fd () =
  let r = Driver.run ~roots:[ fx "lib/proc"; fx "examples" ] () in
  let rule = "raw-fd-in-proc" in
  (* openfile, dup, close behind the table's back *)
  check_n r ~file:(fx "lib/proc/rf_bad.ml") ~rule 3;
  check_n r ~file:(fx "lib/proc/rf_good.ml") ~rule 0;
  check_n r ~file:(fx "lib/proc/rf_waived.ml") ~rule 0;
  check_n ~waived:true r ~file:(fx "lib/proc/rf_waived.ml") ~rule 1;
  (* handlers: only ULP-managed examples are held to the discipline *)
  check_n r ~file:(fx "examples/rf_handler_bad.ml") ~rule 1;
  check_n r ~file:(fx "examples/rf_handler_plain.ml") ~rule 0

(* ---------- seam-bypass ---------- *)

let test_seam () =
  let r = Driver.run ~roots:[ fx "seam" ] () in
  let rule = "seam-bypass" in
  (* Stdlib.Atomic.get, Stdlib.Mutex.lock, Stdlib.Mutex.unlock *)
  check_n r ~file:(fx "seam/src/seam_bad.ml") ~rule 3;
  check_n r ~file:(fx "seam/src/seam_good.ml") ~rule 0;
  check_n r ~file:(fx "seam/src/seam_waived.ml") ~rule 0;
  check_n ~waived:true r ~file:(fx "seam/src/seam_waived.ml") ~rule 1;
  (* and the manifest parser itself *)
  let srcs =
    Driver.copy_files_sources ~dune_path:(fx "seam/checker/dune")
      "(copy_files# (files ../src/a.ml ../src/b.ml))"
  in
  Alcotest.(check (list string))
    "copy_files sources resolve relative to the dune"
    [ fx "seam/src/a.ml"; fx "seam/src/b.ml" ]
    srcs

(* ---------- transitive-blocking-in-fiber ---------- *)

let test_transitive_blocking () =
  (* util/ holds the non-fiber helper chain the wrapper calls into *)
  let r = Driver.run ~roots:[ fx "lib/fiber_rt"; fx "util" ] () in
  let rule = "transitive-blocking-in-fiber" in
  check_n r ~file:(fx "lib/fiber_rt/tb_bad.ml") ~rule 1;
  (* the acceptance case: tb_bad.ml contains no syscall of its own, so
     the direct per-file rule provably finds nothing there -- only the
     interprocedural chain through Io_helper does *)
  check_n r ~file:(fx "lib/fiber_rt/tb_bad.ml") ~rule:"blocking-in-fiber" 0;
  (* the finding carries the call path as evidence *)
  (match hits r ~file:(fx "lib/fiber_rt/tb_bad.ml") ~rule with
  | [ f ] ->
      Alcotest.(check bool) "call path has >= 2 hops" true
        (List.length f.path >= 2);
      Alcotest.(check bool) "path ends at the syscall" true
        (match List.rev f.path with leaf :: _ -> leaf = "Unix.read" | [] -> false)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  check_n r ~file:(fx "lib/fiber_rt/tb_good.ml") ~rule 0;
  check_n r ~file:(fx "lib/fiber_rt/tb_waived.ml") ~rule 0;
  check_n ~waived:true r ~file:(fx "lib/fiber_rt/tb_waived.ml") ~rule 1

(* ---------- park-while-locked ---------- *)

let test_park_while_locked () =
  let r = Driver.run ~roots:[ fx "lib/fiber_rt" ] () in
  let rule = "park-while-locked" in
  (* a direct Fiber.yield under the lock, and a transitive one through
     a helper that parks *)
  check_n r ~file:(fx "lib/fiber_rt/pw_bad.ml") ~rule 2;
  (* release-then-park, Condition.wait's lock handoff, and
     branch-balanced releases are all clean *)
  check_n r ~file:(fx "lib/fiber_rt/pw_good.ml") ~rule 0;
  check_n r ~file:(fx "lib/fiber_rt/pw_waived.ml") ~rule 0;
  check_n ~waived:true r ~file:(fx "lib/fiber_rt/pw_waived.ml") ~rule 1

(* ---------- lock-order-inversion ---------- *)

let test_lock_order () =
  let r = Driver.run ~roots:[ fx "lib/fiber_rt" ] () in
  let rule = "lock-order-inversion" in
  (* both closing edges of the AB/BA cycle are reported *)
  check_n r ~file:(fx "lib/fiber_rt/lo_bad.ml") ~rule 2;
  (* the message names both locks by definition site *)
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check bool) "identifies order_a by definition site" true
        (let needle = "Lo_bad.order_a" in
         let len = String.length needle in
         let n = String.length f.message in
         let rec scan i =
           i + len <= n && (String.sub f.message i len = needle || scan (i + 1))
         in
         scan 0))
    (hits r ~file:(fx "lib/fiber_rt/lo_bad.ml") ~rule);
  (* the faithful copy of the seeded twin takes both locks in one
     global order and passes *)
  check_n r ~file:(fx "lib/fiber_rt/lo_good.ml") ~rule 0;
  check_n r ~file:(fx "lib/fiber_rt/lo_waived.ml") ~rule 0;
  check_n ~waived:true r ~file:(fx "lib/fiber_rt/lo_waived.ml") ~rule 2

(* ---------- missed-cancellation-point ---------- *)

let test_missed_cancellation () =
  let r = Driver.run ~roots:[ fx "lib/proc" ] () in
  let rule = "missed-cancellation-point" in
  (* the while-loop and recursive-function spellings of the same spin *)
  check_n r ~file:(fx "lib/proc/mc_bad.ml") ~rule 2;
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check string) "missed-cancellation-point is a warning"
        "warning"
        (Finding.severity_to_string f.severity))
    (hits r ~file:(fx "lib/proc/mc_bad.ml") ~rule);
  (* polling, parking, CAS-retry and call-free loops are all exempt *)
  check_n r ~file:(fx "lib/proc/mc_good.ml") ~rule 0;
  check_n r ~file:(fx "lib/proc/mc_waived.ml") ~rule 0;
  check_n ~waived:true r ~file:(fx "lib/proc/mc_waived.ml") ~rule 1

(* ---------- mli-coverage ---------- *)

let test_mli () =
  let r = Driver.run ~roots:[ fx "lib/mlicov" ] () in
  let rule = "mli-coverage" in
  check_n r ~file:(fx "lib/mlicov/no_iface.ml") ~rule 1;
  check_n r ~file:(fx "lib/mlicov/with_iface.ml") ~rule 0

(* ---------- the waiver machinery ---------- *)

let test_waivers () =
  let r = Driver.run ~roots:[ fx "waivers" ] () in
  (* reasonless waiver: flagged, and the underlying finding survives *)
  check_n r ~file:(fx "waivers/bad_waiver.ml") ~rule:"bad-waiver" 1;
  check_n r ~file:(fx "waivers/bad_waiver.ml") ~rule:"atomic-get-then-set" 1;
  (* stale waiver: a warning *)
  let stale = hits r ~file:(fx "waivers/unused_waiver.ml") ~rule:"unused-waiver" in
  Alcotest.(check int) "one unused-waiver" 1 (List.length stale);
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check string)
        "unused-waiver is a warning" "warning"
        (Finding.severity_to_string f.severity))
    stale;
  (* unparseable file: reported, not silently vouched for *)
  check_n r ~file:(fx "waivers/noparse.ml") ~rule:"parse-error" 1;
  (* --no-waivers reports everything *)
  let r' = Driver.run ~roots:[ fx "ags" ] ~use_waivers:false () in
  check_n r' ~file:(fx "ags/ags_waived.ml") ~rule:"atomic-get-then-set" 1

(* ---------- re-detecting the seeded checker bugs ---------- *)

let test_redetect_seeded_bugs () =
  let r = Driver.run ~roots:[ "lib/check" ] () in
  let rule = "atomic-get-then-set" in
  let unwaived file =
    List.length (hits r ~file:("lib/check/" ^ file) ~rule)
  in
  (* Buggy_reactor.post: get then set in both branches *)
  Alcotest.(check int) "buggy_reactor lost wakeups" 2 (unwaived "buggy_reactor.ml");
  (* Buggy_completion.finish *)
  Alcotest.(check int) "buggy_completion lost wakeup" 1 (unwaived "buggy_completion.ml");
  (* Buggy_deque's downgraded pop CAS *)
  Alcotest.(check bool) "buggy_deque caught" true (unwaived "buggy_deque.ml" >= 1);
  (* Buggy_sync: the get-then-set Mutex.unlock twin, two store
     branches; the Condition twin is a protocol-order bug only the
     dynamic checker can see *)
  Alcotest.(check int) "buggy_sync lost wakeups" 2 (unwaived "buggy_sync.ml");
  (* Buggy_scope.leave's non-atomic decrement *)
  Alcotest.(check int) "buggy_scope lost completion" 1
    (unwaived "buggy_scope.ml");
  (* Buggy_fd: the get-then-set pair (retain resurrects, release leaks) *)
  Alcotest.(check int) "buggy_fd refcount races" 2 (unwaived "buggy_fd.ml");
  (* Buggy_kc_pool.pop: a racing pop takes the same free KC *)
  Alcotest.(check int) "buggy_kc_pool double lease" 1 (unwaived "buggy_kc_pool.ml");
  (* Buggy_lockorder: credit takes A->B, debit takes B->A; both edges
     of the cycle are reported, on definition-site lock identities *)
  let lo file =
    List.length (hits r ~file:("lib/check/" ^ file) ~rule:"lock-order-inversion")
  in
  Alcotest.(check int) "buggy_lockorder AB/BA deadlock" 2
    (lo "buggy_lockorder.ml")

(* ---------- the JSON report and the --diff baseline gate ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains ~needle hay =
  let len = String.length needle and n = String.length hay in
  let rec scan i =
    i + len <= n && (String.sub hay i len = needle || scan (i + 1))
  in
  scan 0

let test_json_v2 () =
  let r = Driver.run ~roots:[ fx "lib/fiber_rt"; fx "util" ] () in
  let path = Filename.temp_file "ulplint_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Driver.write_json ~path r;
      let s = read_file path in
      Alcotest.(check bool) "schema is v2" true
        (contains ~needle:{|"schema": "ulp-pip/lint/v2"|} s);
      Alcotest.(check bool) "has a summaries section" true
        (contains ~needle:{|"summaries"|} s);
      Alcotest.(check bool) "has per-rule counts" true
        (contains ~needle:{|"rule_counts"|} s);
      (* the transitive finding serializes its call-path evidence *)
      Alcotest.(check bool) "findings carry path evidence" true
        (contains ~needle:{|"path": ["Io_helper.copy_all|} s));
  (* the summary stats are live, not zero-filled *)
  Alcotest.(check bool) "summarized some functions" true (r.stats.functions > 0);
  Alcotest.(check bool) "some functions may park" true (r.stats.may_park > 0);
  Alcotest.(check bool) "found the module-level locks" true (r.stats.locks >= 2);
  Alcotest.(check bool) "recorded lock-order edges" true
    (r.stats.lock_order_edges >= 2)

let test_diff () =
  let r = Driver.run ~roots:[ fx "lib/fiber_rt"; fx "util" ] () in
  let path = Filename.temp_file "ulplint_base" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Driver.write_json ~path r;
      (* a report diffed against its own baseline introduces nothing *)
      (match Driver.diff ~baseline:path r with
      | Ok [] -> ()
      | Ok fs -> Alcotest.failf "self-diff found %d new findings" (List.length fs)
      | Error e -> Alcotest.failf "self-diff errored: %s" e);
      (* a run over different code shows up as new against that baseline *)
      let r' = Driver.run ~roots:[ "lib/check" ] () in
      match Driver.diff ~baseline:path r' with
      | Ok [] -> Alcotest.fail "lib/check vs fixture baseline must differ"
      | Ok _ -> ()
      | Error e -> Alcotest.failf "cross-diff errored: %s" e);
  (* a missing baseline is an I/O error, not a crash or a pass *)
  match Driver.diff ~baseline:"/nonexistent/lint.json" r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing baseline must be an Error"

(* ---------- the shipped tree is lint-clean ---------- *)

let test_repo_clean () =
  let r = Driver.run () in
  let unwaived =
    List.filter
      (fun (f : Finding.t) -> f.severity = Finding.Error && f.waived = None)
      r.findings
  in
  List.iter (fun f -> Printf.eprintf "STRAY: %s\n" (Finding.to_string f)) unwaived;
  Alcotest.(check int) "no unwaivered errors in the repo" 0 (List.length unwaived);
  Alcotest.(check int) "no warnings in the repo" 0 (Driver.warning_count r);
  (* every waiver in the tree carries a reason by construction; make
     sure none of them went stale *)
  Alcotest.(check bool) "walked a plausible number of files" true
    (r.files_scanned > 50)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "blocking-in-fiber" `Quick test_blocking;
          Alcotest.test_case "raw-mutex-in-fiber" `Quick test_raw_mutex;
          Alcotest.test_case "atomic-get-then-set" `Quick test_get_then_set;
          Alcotest.test_case "atomic-check-then-faa" `Quick
            test_check_then_faa;
          Alcotest.test_case "syscall-consistency" `Quick test_syscall;
          Alcotest.test_case "raw-fd-in-proc" `Quick test_raw_fd;
          Alcotest.test_case "seam-bypass" `Quick test_seam;
          Alcotest.test_case "mli-coverage" `Quick test_mli;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "transitive-blocking-in-fiber" `Quick
            test_transitive_blocking;
          Alcotest.test_case "park-while-locked" `Quick test_park_while_locked;
          Alcotest.test_case "lock-order-inversion" `Quick test_lock_order;
          Alcotest.test_case "missed-cancellation-point" `Quick
            test_missed_cancellation;
        ] );
      ( "waivers",
        [ Alcotest.test_case "waiver machinery" `Quick test_waivers ] );
      ( "report",
        [
          Alcotest.test_case "LINT.json schema v2" `Quick test_json_v2;
          Alcotest.test_case "--diff baseline gate" `Quick test_diff;
        ] );
      ( "teeth",
        [
          Alcotest.test_case "re-detects seeded checker bugs" `Quick
            test_redetect_seeded_bugs;
          Alcotest.test_case "repo self-check is clean" `Quick test_repo_clean;
        ] );
    ]
