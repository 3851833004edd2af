(* The driver: walk the tree, parse each .ml once, build the Pass-1
   summaries, run the per-file rules AND the interprocedural engine
   (Callgraph fixpoint + Lockgraph) over them, resolve copy_files#
   manifests for the seam rule, apply waivers, and report -- human
   lines on stdout, machine-readable LINT.json (schema v2) on request.
   Exit is non-zero iff an unwaivered error remains.

   Walk policy: descending from a root we skip _build, dot-directories,
   directories named "fixtures" (the lint test corpus is deliberately
   dirty) and lib/check (the checker's sandbox of deliberately seeded
   bugs; its recompiled modules are linted at their source of truth in
   lib/fiber_rt / lib/net, and its dune manifest is still read for the
   seam rule).  A root that is given explicitly is always walked in
   full -- `ulplint lib/check` is how the tests re-detect the seeded
   get-then-set bugs. *)

let default_roots = [ "lib"; "bin"; "bench"; "examples"; "test" ]

type stats = {
  functions : int;            (* summarized functions *)
  may_park : int;
  may_block : int;
  reaches_cancellation : int;
  locks : int;                (* module-level lock definitions *)
  lock_order_edges : int;
}

type report = {
  roots : string list;
  files_scanned : int;        (* files that parsed, not files skipped *)
  findings : Finding.t list;  (* sorted; includes waived ones *)
  stats : stats;
}

(* ---------- small file helpers ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_dir path = try Sys.is_directory path with Sys_error _ -> false

(* Collapse "." and ".." segments so paths resolved relative to a dune
   file compare equal to walked paths. *)
let normalize path =
  let absolute = String.length path > 0 && path.[0] = '/' in
  let segs =
    List.fold_left
      (fun acc seg ->
        match seg with
        | "" | "." -> acc
        | ".." -> ( match acc with _ :: tl when List.hd acc <> ".." -> tl | _ -> seg :: acc)
        | s -> s :: acc)
      []
      (String.split_on_char '/' path)
  in
  let body = String.concat "/" (List.rev segs) in
  if absolute then "/" ^ body else body

(* ---------- the walk ---------- *)

let sorted_dir d = List.sort String.compare (Array.to_list (Sys.readdir d))

let walk roots =
  let mls = ref [] and dunes = ref [] in
  let visit_file path name =
    if Filename.check_suffix name ".ml" then mls := path :: !mls
    else if name = "dune" then dunes := path :: !dunes
  in
  let rec go dir =
    List.iter
      (fun name ->
        let child = Filename.concat dir name in
        if is_dir child then begin
          if name = "" || name.[0] = '.' || name = "_build" || name = "fixtures"
          then ()
          else if name = "check" && Filename.basename dir = "lib" then begin
            (* skipped sandbox, but its dune drives the seam rule *)
            let d = Filename.concat child "dune" in
            if Sys.file_exists d then dunes := d :: !dunes
          end
          else go child
        end
        else visit_file child name)
      (sorted_dir dir)
  in
  List.iter
    (fun root ->
      let root = normalize root in
      if is_dir root then go root
      else if Sys.file_exists root then
        visit_file root (Filename.basename root))
    roots;
  (List.rev !mls, List.rev !dunes)

(* ---------- copy_files# manifests ---------- *)

(* Extract the file operands of every (copy_files ...)/(copy_files# ...)
   stanza.  Textual scan, not a sexp parser: enough for the shapes this
   repo writes ((copy_files# (files ../dir/file.ml))); glob patterns and
   pforms are ignored. *)
let copy_files_sources ~dune_path text =
  let dir = Filename.dirname dune_path in
  let len = String.length text in
  let find sub from =
    let m = String.length sub in
    let rec go i =
      if i + m > len then None
      else if String.sub text i m = sub then Some i
      else go (i + 1)
    in
    if from >= len then None else go from
  in
  let rec scan from acc =
    match find "copy_files" from with
    | None -> List.rev acc
    | Some i -> (
        let stanza_end =
          match find "copy_files" (i + 10) with None -> len | Some j -> j
        in
        match find "(files" (i + 10) with
        | Some j when j < stanza_end -> (
            match String.index_from_opt text j ')' with
            | None -> List.rev acc
            | Some k ->
                let inner = String.sub text (j + 6) (k - j - 6) in
                let files =
                  String.split_on_char ' ' inner
                  |> List.concat_map (String.split_on_char '\n')
                  |> List.map String.trim
                  |> List.filter (fun s ->
                         s <> ""
                         && (not (String.contains s '*'))
                         && not (String.contains s '%'))
                in
                let acc =
                  List.fold_left
                    (fun acc f ->
                      normalize (Filename.concat dir f) :: acc)
                    acc files
                in
                scan (k + 1) acc)
        | _ -> scan (i + 10) acc)
  in
  scan 0 []

(* ---------- the run ---------- *)

let run ?(roots = default_roots) ?(use_waivers = true) () =
  let mls, dunes = walk roots in
  let findings = ref [] in
  let add fs = findings := fs @ !findings in
  (* one waiver scan per file, shared by the walked pass and the seam
     pass so used/unused accounting stays coherent *)
  let waiver_tbl = Hashtbl.create 64 in
  let waivers_of file =
    match Hashtbl.find_opt waiver_tbl file with
    | Some ws -> ws
    | None ->
        let ws, bad =
          match read_file file with
          | text -> Waivers.scan ~file text
          | exception Sys_error msg ->
              ( [],
                [
                  Finding.make ~rule:"parse-error" ~severity:Finding.Error
                    ~file ~line:1 ~col:0 ("cannot read file: " ^ msg);
                ] )
        in
        add bad;
        Hashtbl.add waiver_tbl file ws;
        ws
  in
  let ast_tbl = Hashtbl.create 64 in
  let ast_of file =
    match Hashtbl.find_opt ast_tbl file with
    | Some r -> r
    | None ->
        let r = Ast_util.parse_impl file in
        Hashtbl.add ast_tbl file r;
        r
  in
  (* walked .ml files: waivers, mli coverage, the per-file AST rules,
     and the Pass-1 summary for the interprocedural engine *)
  let parsed = ref 0 in
  let summaries = ref [] in
  List.iter
    (fun file ->
      let waivers = waivers_of file in
      let segs = Ast_util.path_segments file in
      if Rules.mli_in_scope segs then add (Rules.check_mli ~file);
      match ast_of file with
      | Error msg ->
          add
            [
              Finding.make ~rule:"parse-error" ~severity:Finding.Error ~file
                ~line:1 ~col:0 msg;
            ]
      | Ok ast ->
          incr parsed;
          List.iter
            (fun (r : Rules.ast_rule) ->
              if r.in_scope segs then add (r.check ~file ast))
            Rules.ast_rules;
          (* a blocking-in-fiber waiver at the leaf stops the may-block
             taint at its source, so one written seam exemption
             (Clock.now) covers every transitive caller *)
          let waived_blocking line =
            List.exists
              (fun (w : Waivers.t) ->
                w.rule = "blocking-in-fiber"
                && (w.line = line || w.line + 1 = line))
              waivers
          in
          summaries :=
            Summary.of_structure ~file ~waived_blocking ast :: !summaries)
    mls;
  let summaries = List.rev !summaries in
  (* Pass 2: the call-graph fixpoint and the lock-order graph *)
  let cg = Callgraph.build summaries in
  add (Callgraph.findings cg);
  let lg = Lockgraph.build summaries in
  add lg.Lockgraph.findings;
  (* seam rule: every source some dune recompiles via copy_files# *)
  let seam_seen = Hashtbl.create 16 in
  List.iter
    (fun dune ->
      match read_file dune with
      | exception Sys_error _ -> ()
      | text ->
          List.iter
            (fun src ->
              if
                Filename.check_suffix src ".ml"
                && (not (Hashtbl.mem seam_seen src))
                && Sys.file_exists src
              then begin
                Hashtbl.add seam_seen src ();
                ignore (waivers_of src);
                match ast_of src with
                | Error _ -> () (* reported by the walked pass if walked *)
                | Ok ast -> add (Rules.check_seam ~file:src ~dune ast)
              end)
            (copy_files_sources ~dune_path:dune text))
    dunes;
  (* waivers: mark, then flag the unused ones (walked files only -- a
     pointed run must not indict waivers whose rules it never ran) *)
  if use_waivers then begin
    Hashtbl.iter
      (fun file ws ->
        (* a waiver only ever covers findings in its own file *)
        Waivers.apply ws
          (List.filter (fun (f : Finding.t) -> f.Finding.file = file) !findings))
      waiver_tbl;
    List.iter (fun file -> add (Waivers.unused ~file (waivers_of file))) mls
  end;
  let functions, may_park, may_block, reaches_cancellation =
    Callgraph.stats cg
  in
  {
    roots;
    files_scanned = !parsed;
    findings = List.sort Finding.order !findings;
    stats =
      {
        functions;
        may_park;
        may_block;
        reaches_cancellation;
        locks = lg.Lockgraph.locks;
        lock_order_edges = lg.Lockgraph.edges;
      };
  }

(* ---------- accounting ---------- *)

let unwaived_errors r =
  List.length
    (List.filter
       (fun (f : Finding.t) -> f.severity = Finding.Error && f.waived = None)
       r.findings)

let waived_count r =
  List.length (List.filter (fun (f : Finding.t) -> f.waived <> None) r.findings)

let warning_count r =
  List.length
    (List.filter
       (fun (f : Finding.t) -> f.severity = Finding.Warning && f.waived = None)
       r.findings)

let findings_of_rule r rule =
  List.filter (fun (f : Finding.t) -> f.Finding.rule = rule) r.findings

(* ---------- output ---------- *)

let print ?(show_waived = false) oc r =
  List.iter
    (fun (f : Finding.t) ->
      if f.waived = None || show_waived then
        output_string oc (Finding.to_string f ^ "\n"))
    r.findings;
  Printf.fprintf oc
    "ulplint: %d files, %d error%s (%d waived), %d warning%s\n"
    r.files_scanned (unwaived_errors r)
    (if unwaived_errors r = 1 then "" else "s")
    (waived_count r) (warning_count r)
    (if warning_count r = 1 then "" else "s")

(* schema v2: the summaries section and per-rule counts make a report
   diffable at a glance; findings are sorted (Finding.order) and keys
   are emitted in one fixed order, so baseline diffs are line-stable. *)
let rule_counts r =
  List.sort_uniq compare (List.map (fun (f : Finding.t) -> f.rule) r.findings)
  |> List.map (fun rule -> (rule, List.length (findings_of_rule r rule)))

let write_json ~path r =
  let module J = Report.Json in
  let int n = J.Num (float_of_int n) in
  let strs l = J.List (List.map (fun s -> J.Str s) l) in
  let finding (f : Finding.t) =
    J.Obj
      ([ ("file", J.Str f.file); ("line", int f.line); ("col", int f.col);
         ("rule", J.Str f.rule);
         ("severity", J.Str (Finding.severity_to_string f.severity));
         ("message", J.Str f.message); ("waived", J.Bool (f.waived <> None)) ]
      @ (match f.waived with Some why -> [ ("reason", J.Str why) ] | None -> [])
      @ if f.path = [] then [] else [ ("path", strs f.path) ])
  in
  J.write_file path
    (J.Obj
       [ ("schema", J.Str "ulp-pip/lint/v2"); ("roots", strs r.roots);
         ("files_scanned", int r.files_scanned);
         ("errors", int (unwaived_errors r));
         ("warnings", int (warning_count r)); ("waived", int (waived_count r));
         ( "summaries",
           J.Obj
             [ ("functions", int r.stats.functions);
               ("may_park", int r.stats.may_park);
               ("may_block", int r.stats.may_block);
               ("reaches_cancellation", int r.stats.reaches_cancellation);
               ("locks", int r.stats.locks);
               ("lock_order_edges", int r.stats.lock_order_edges) ] );
         ( "rule_counts",
           J.Obj (List.map (fun (rule, n) -> (rule, int n)) (rule_counts r)) );
         ("findings", J.List (List.map finding r.findings)) ])

(* ---------- --diff: gate only NEW unwaivered findings ---------- *)

(* A baseline finding is identified by (file, rule, line): stable under
   unrelated edits, tight enough that a second occurrence of the same
   rule in the same file on a new line is still new.  Both v1 and v2
   baselines parse (the fields used exist in both). *)
let diff ~baseline r =
  match Report.Json.parse_file baseline with
  | Error msg -> Error (Printf.sprintf "%s: %s" baseline msg)
  | Ok json -> (
      match Option.bind (Report.Json.member "findings" json) Report.Json.to_list with
      | None -> Error (baseline ^ ": no \"findings\" array")
      | Some known ->
          let key_tbl = Hashtbl.create 64 in
          List.iter
            (fun f ->
              let str k = Option.bind (Report.Json.member k f) Report.Json.to_string in
              let num k = Option.bind (Report.Json.member k f) Report.Json.to_float in
              match (str "file", str "rule", num "line") with
              | Some file, Some rule, Some line ->
                  Hashtbl.replace key_tbl (file, rule, int_of_float line) ()
              | _ -> ())
            known;
          Ok
            (List.filter
               (fun (f : Finding.t) ->
                 f.waived = None
                 && not (Hashtbl.mem key_tbl (f.file, f.rule, f.line)))
               r.findings))
