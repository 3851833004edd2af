(* Pass 2 of the interprocedural engine (DESIGN.md section 5i): a
   fixpoint over the call graph of the Pass-1 summaries, then the three
   call-path rules.

   Facts are set-once and monotone (a function that may park never
   un-parks), so naive iteration to a fixed point terminates; each fact
   carries its first witness -- the chain of call sites down to the
   leaf -- which becomes the finding's call-path evidence.

   Name resolution is syntactic, against the module-qualified summary
   names (sync.ml's [Mutex.lock] is [Sync.Mutex.lock]).  A call written as
   [p] inside module prefix [M.N] tries [M.N.p], [M.p], [p], then
   drops leading segments of [p] itself ([Fiber_rt.Clock.now] resolves
   to [Clock.now]) -- the shapes a dune-built tree actually writes.
   Unresolvable calls (stdlib, C stubs, local closures) contribute
   nothing, keeping the analysis sound-where-it-speaks rather than
   complete: no fact is ever invented, only propagated from a witnessed
   leaf. *)

open Summary

type facts = {
  fc_fn : fn;
  fc_fs : file_summary;
  mutable parks : (int * int * string list) option;
      (* anchor line, col in fc_fn's file; witness chain to the leaf *)
  mutable blocks : (int * int * string list) option;
  mutable cancels : bool;
}

type t = {
  by_name : (string, facts list) Hashtbl.t;
  all : facts list;
}

(* ---------- leaf sets ---------- *)

(* Calls that park the calling FIBER (yielding the worker to the next
   runnable one).  Parking is fine on its own -- it is the whole point
   of the runtime -- but not while holding a lock the waker needs.
   Sync.Mutex.lock is deliberately absent: nested acquisition risk is
   lock-order-inversion's domain, and Pass 1 records it as an acquire,
   not a call. *)
let park_leaf path =
  match List.rev path with
  | ("yield" | "suspend" | "suspend_token" | "join") :: "Fiber" :: _ ->
      Some ("Fiber." ^ List.hd (List.rev path))
  | ("await" | "run") :: "Scope" :: _ -> Some ("Scope." ^ List.hd (List.rev path))
  | "wait" :: "Condition" :: _ -> Some "Condition.wait"
  | "waitpid" :: "Proc" :: _ -> Some "Proc.waitpid"
  | ("sleep" | "sleep_until") :: "Reactor" :: _ ->
      Some ("Reactor." ^ List.hd (List.rev path))
  | op :: "Fiber_io" :: _ -> Some ("Fiber_io." ^ op)
  | op :: "Io" :: "Proc" :: _ -> Some ("Proc.Io." ^ op)
  | _ -> None

(* Cancellation points: where pending signals and scope cancellation
   are observed.  Every park is one (the wake path re-checks), plus the
   explicit polls. *)
let cancel_leaf path =
  match park_leaf path with
  | Some d -> Some d
  | None -> (
      match List.rev path with
      | "check" :: ("Proc" | "Process" | "Scope") :: _ ->
          Some (String.concat "." path)
      | [ "check" ] -> None
      | _ -> None)

(* ---------- resolution ---------- *)

(* Candidate qualified names for [path] written inside module [prefix],
   most specific first. *)
let candidates ~prefix path =
  let quald segs = String.concat "." segs in
  let rec outward pfx acc =
    let acc = quald (pfx @ path) :: acc in
    match pfx with [] -> acc | _ -> outward (List.filteri (fun i _ -> i < List.length pfx - 1) pfx) acc
  in
  let qualified = List.rev (outward prefix []) in
  let rec drops p acc =
    match p with
    | _ :: (_ :: _ :: _ as tl) -> drops tl (quald tl :: acc)
    | _ -> List.rev acc
  in
  qualified @ drops path []

let prefix_of_name name =
  match List.rev (String.split_on_char '.' name) with
  | _ :: rev_prefix -> List.rev rev_prefix
  | [] -> []

let resolve t ~prefix path =
  let rec first = function
    | [] -> []
    | c :: rest -> (
        match Hashtbl.find_opt t.by_name c with
        | Some fs -> fs
        | None -> first rest)
  in
  first (candidates ~prefix path)

(* ---------- the fixpoint ---------- *)

let build summaries =
  let by_name = Hashtbl.create 256 in
  let all =
    List.concat_map
      (fun fs ->
        List.map
          (fun f ->
            let fc =
              {
                fc_fn = f;
                fc_fs = fs;
                parks =
                  (match
                     List.find_opt (fun c -> park_leaf c.c_path <> None) f.fn_calls
                   with
                  | Some c ->
                      Some
                        ( c.c_line, c.c_col,
                          [ Option.get (park_leaf c.c_path) ] )
                  | None -> None);
                blocks =
                  (match f.fn_blocks with
                  | Some (leaf, line, col) -> Some (line, col, [ leaf ])
                  | None -> None);
                cancels =
                  List.exists (fun c -> cancel_leaf c.c_path <> None) f.fn_calls;
              }
            in
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt by_name f.fn_name)
            in
            Hashtbl.replace by_name f.fn_name (prev @ [ fc ]);
            fc)
          fs.fs_fns)
      summaries
  in
  let t = { by_name; all } in
  let step g anchor_line =
    Printf.sprintf "%s (%s:%d)" g.fc_fn.fn_name g.fc_fn.fn_file anchor_line
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun fc ->
        let prefix = prefix_of_name fc.fc_fn.fn_name in
        List.iter
          (fun c ->
            List.iter
              (fun g ->
                if g != fc then begin
                  (match (fc.parks, g.parks) with
                  | None, Some (gl, _, gpath) ->
                      fc.parks <- Some (c.c_line, c.c_col, step g gl :: gpath);
                      changed := true
                  | _ -> ());
                  (match (fc.blocks, g.blocks) with
                  | None, Some (gl, _, gpath) when not c.c_coupled ->
                      fc.blocks <- Some (c.c_line, c.c_col, step g gl :: gpath);
                      changed := true
                  | _ -> ());
                  if g.cancels && not fc.cancels then begin
                    fc.cancels <- true;
                    changed := true
                  end
                end)
              (resolve t ~prefix c.c_path))
          fc.fc_fn.fn_calls)
      all
  done;
  t

(* ---------- accounting for LINT.json's summaries section ---------- *)

let stats t =
  let count p = List.length (List.filter p t.all) in
  ( List.length t.all,
    count (fun f -> f.parks <> None),
    count (fun f -> f.blocks <> None),
    count (fun f -> f.cancels) )

(* ---------- the rules ---------- *)

let lock_to_string (l : lock) =
  let name =
    match l.lk_expr with
    | Lpath p -> String.concat "." p
    | Lfield f -> "<record>." ^ f
    | Lother s -> s
  in
  Printf.sprintf "%s %s" (kind_to_string l.lk_kind) name

let chain_to_string path = String.concat " -> " path

let step_of g anchor_line =
  Printf.sprintf "%s (%s:%d)" g.fc_fn.fn_name g.fc_fn.fn_file anchor_line

(* transitive-blocking-in-fiber: a fiber-scope function that reaches a
   blocking leaf through at least one wrapper call.  The direct case
   (chain length 1) is blocking-in-fiber's, reported by the per-file
   rule at the leaf itself. *)
let transitive_blocking_findings t =
  List.filter_map
    (fun fc ->
      match fc.blocks with
      | Some (line, col, (_ :: _ :: _ as path))
        when Rules.fiber_scope (Ast_util.path_segments fc.fc_fn.fn_file) ->
          Some
            (Finding.make ~rule:"transitive-blocking-in-fiber"
               ~severity:Finding.Error ~file:fc.fc_fn.fn_file ~line ~col ~path
               (Printf.sprintf
                  "%s reaches blocking %s through wrapper calls (%s): the \
                   worker domain blocks and every fiber scheduled there \
                   stalls; push the blocking to Fiber_io/Reactor, run it \
                   coupled, or waive the seam itself so all callers are \
                   covered by one written reason"
                  fc.fc_fn.fn_name
                  (List.hd (List.rev path))
                  (chain_to_string path)))
      | _ -> None)
    t.all

(* park-while-locked: a call that parks the calling fiber -- directly
   (a park leaf) or transitively (resolves to a may-park function) --
   made while the Pass-1 held-lock state says a lock is held.  The
   fiber that would wake the parker may need that very lock, and then
   neither makes progress: the classic stall-every-fiber shape.
   [Condition.wait c m] is exempt on [m] by construction (Pass 1
   subtracts it), but still reported if some OTHER lock spans it. *)
let park_while_locked_findings t =
  List.concat_map
    (fun fc ->
      if not (Rules.fiber_scope (Ast_util.path_segments fc.fc_fn.fn_file)) then
        []
      else
        let prefix = prefix_of_name fc.fc_fn.fn_name in
        List.filter_map
          (fun c ->
            if c.c_held = [] then None
            else
              let parked =
                match park_leaf c.c_path with
                | Some leaf -> Some [ leaf ]
                | None ->
                    List.find_map
                      (fun g ->
                        match g.parks with
                        | Some (gl, _, gpath) when g != fc ->
                            Some (step_of g gl :: gpath)
                        | _ -> None)
                      (resolve t ~prefix c.c_path)
              in
              match parked with
              | None -> None
              | Some path ->
                  Some
                    (Finding.make ~rule:"park-while-locked"
                       ~severity:Finding.Error ~file:fc.fc_fn.fn_file
                       ~line:c.c_line ~col:c.c_col ~path
                       (Printf.sprintf
                          "%s parks the fiber (%s) while holding %s: a fiber \
                           that needs that lock to produce the wakeup can \
                           never run, deadlocking both; release before \
                           parking, or waive with the handoff protocol \
                           written down"
                          fc.fc_fn.fn_name (chain_to_string path)
                          (String.concat " and "
                             (List.map lock_to_string c.c_held)))))
          fc.fc_fn.fn_calls)
    t.all

(* missed-cancellation-point: a loop in ULP handler code none of whose
   calls reaches a cancellation point.  Signals and scope cancellation
   are delivered cooperatively (ROADMAP residual: no preemption), so
   such a loop makes the ULP unkillable for as long as it runs.
   CAS-retry loops (an atomic RMW in the body) and call-free compute
   loops are exempt: the former converge in a few spins, and the
   latter are the documented preemption residual, not a missing poll. *)
let missed_cancellation_findings t =
  List.concat_map
    (fun fc ->
      let segs = Ast_util.path_segments fc.fc_fn.fn_file in
      let in_scope =
        Ast_util.has_pair "lib" "proc" segs
        || (Ast_util.has_seg "examples" segs && fc.fc_fs.fs_refs_proc)
      in
      if not in_scope then []
      else
        let prefix = prefix_of_name fc.fc_fn.fn_name in
        List.filter_map
          (fun l ->
            if l.l_rmw || l.l_calls = [] then None
            else
              let is_cancel c =
                cancel_leaf c.c_path <> None
                || List.exists
                     (fun g -> g != fc && g.cancels)
                     (resolve t ~prefix c.c_path)
              in
              if List.exists is_cancel l.l_calls then None
              else
                let called =
                  List.sort_uniq String.compare
                    (List.map (fun c -> String.concat "." c.c_path) l.l_calls)
                in
                Some
                  (Finding.make ~rule:"missed-cancellation-point"
                     ~severity:Finding.Warning ~file:fc.fc_fn.fn_file
                     ~line:l.l_line ~col:l.l_col ~path:called
                     (Printf.sprintf
                        "%s in %s never reaches a cancellation point (no \
                         Proc.check / Scope.check / parking call on any \
                         iteration; calls: %s): signals and scope cancel are \
                         delivered cooperatively, so a ULP spinning here is \
                         unkillable; add Proc.check to the loop, or waive \
                         with the bound written down"
                        l.l_desc fc.fc_fn.fn_name
                        (String.concat ", " called))))
          fc.fc_fn.fn_loops)
    t.all

let findings t =
  transitive_blocking_findings t
  @ park_while_locked_findings t
  @ missed_cancellation_findings t
