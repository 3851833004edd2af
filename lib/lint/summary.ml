(* Pass 1 of the interprocedural engine (DESIGN.md section 5i): one
   module-qualified summary per function, extracted from the untyped
   AST in a single environment-threading walk.

   A summary records what later passes need and nothing else:

   - every applied call site, with the set of locks held there (so
     Callgraph can ask "does anything parking run under a lock?" and
     Lockgraph can extend the acquisition-order graph through calls);
   - every lock acquisition, with the locks already held at that point
     (the direct acquisition-order edges);
   - whether the function itself performs a blocking syscall (the
     may-block leaf fact -- [coupled] or waived sites excluded, so a
     written exemption at a seam like Clock.now stops the taint from
     spreading to every caller of the seam);
   - its loops, for the missed-cancellation-point rule.

   Held-lock tracking is a tiny abstract interpretation, deliberately
   shallow: sequencing threads the held set, branches fork it and
   re-join on the intersection (a lock released on one arm is not
   assumed held after the join), and an anonymous [fun] body starts
   with an empty held set -- a closure may run on another domain or
   after the region ends (a suspend registration callback), so
   inheriting the ambient locks would be noise.  Two closures do
   inherit: the body argument of [with_lock]/[Mutex.protect], which
   runs exactly inside the acquisition, and a let-bound local function, which this repo's idiom executes in place
   (a [go] or [retry] loop).  [Condition.wait c m] atomically
   releases [m] around the park, so [m] is subtracted from the held
   set at that call.  Callees are assumed lock-balanced. *)

open Parsetree
open Ast_util

type lock_kind = Raw | Fiber_mutex

let kind_to_string = function
  | Raw -> "raw Mutex"
  | Fiber_mutex -> "Sync.Mutex"

(* How a lock object was named at the use site.  Canonicalization to a
   definition-site identity needs the global lockdef table and happens
   in Lockgraph. *)
type lock_expr =
  | Lpath of string list  (* an identifier path: [order_a], [T.lock] *)
  | Lfield of string      (* a record projection: [t.mutex] -> "mutex" *)
  | Lother of string      (* anything else, printed *)

type lock = {
  lk_expr : lock_expr;
  lk_kind : lock_kind;
  lk_module : string list; (* module prefix of the use site, for resolution *)
}

type call = {
  c_path : string list; (* Stdlib-stripped ident path, as written *)
  c_line : int;
  c_col : int;
  c_coupled : bool;
  c_held : lock list;   (* outermost first *)
}

type acquire = {
  a_lock : lock;
  a_line : int;
  a_col : int;
  a_held : lock list;   (* locks already held when this one is taken *)
}

type loop = {
  l_desc : string;      (* "while loop", "for loop", "recursive function f" *)
  l_line : int;
  l_col : int;
  l_calls : call list;  (* calls inside the body (self-calls excluded) *)
  l_rmw : bool;         (* body performs an atomic RMW: a retry loop *)
}

type fn = {
  fn_name : string;     (* fully qualified: "Sync.Mutex.lock" *)
  fn_file : string;
  fn_line : int;
  mutable fn_calls : call list;
  mutable fn_acquires : acquire list;
  mutable fn_blocks : (string * int * int) option; (* leaf syscall, site *)
  mutable fn_loops : loop list;
}

type file_summary = {
  fs_file : string;
  fs_module : string;                       (* "Sync" *)
  fs_fns : fn list;                         (* source order *)
  fs_lockdefs : (string * lock_kind * int) list;
      (* qualified binding name, kind, def line: "Lo_bad.order_a" *)
  fs_refs_proc : bool;                      (* mentions Proc/Proc_io *)
}

(* ---------- leaf classification ---------- *)

let blocking_unix = [ "read"; "write"; "select"; "sleep"; "sleepf"; "gettimeofday" ]

(* The same leaf set as the direct blocking-in-fiber rule: these park
   the OS thread in the kernel, stalling the whole worker domain. *)
let blocking_leaf path =
  match path with
  | [ "Unix"; f ] when List.mem f blocking_unix -> Some ("Unix." ^ f)
  | [ "Thread"; "delay" ] -> Some "Thread.delay"
  | [ "Parker"; "park" ] | [ "Fiber_rt"; "Parker"; "park" ] -> Some "Parker.park"
  | [ "epoll_wait_stub" ] | [ _; "epoll_wait_stub" ] ->
      Some "epoll_wait_stub (epoll_wait(2))"
  | _ -> None

(* ---------- lock-operation classification ---------- *)

type lock_op =
  | Acquire      (* lock *)
  | Release      (* unlock *)
  | With         (* with_lock / protect *)
  | Cond_wait    (* Condition.wait c m: m released around the park *)

(* [Sync.Mutex] operations are fiber locks wherever they appear; a bare
   [Mutex] is the raw stdlib one unless the file shadows [Mutex] with
   its own module (sync.ml's fiber mutex being the motivating
   shadow). *)
let classify_lock_op ~shadows path =
  let has_sync = List.mem "Sync" path in
  let mutex_kind = if has_sync || shadows "Mutex" then Fiber_mutex else Raw in
  match List.rev path with
  | op :: "Mutex" :: _ -> (
      match op with
      | "lock" -> Some (Acquire, mutex_kind)
      | "unlock" -> Some (Release, mutex_kind)
      | "with_lock" | "protect" -> Some (With, mutex_kind)
      | _ -> None)
  | "wait" :: "Condition" :: _ when not (shadows "Condition") ->
      Some (Cond_wait, if has_sync then Fiber_mutex else Raw)
  | _ -> None

let atomic_rmw path =
  match List.rev path with
  | op :: "Atomic" :: _ ->
      List.mem op [ "compare_and_set"; "exchange"; "fetch_and_add"; "incr"; "decr" ]
  | _ -> false

(* ---------- small AST helpers ---------- *)

let lock_expr_of e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match flatten txt with [] -> Lother (expr_key e) | p -> Lpath (drop_stdlib p))
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (flatten txt) with
      | f :: _ -> Lfield f
      | [] -> Lother (expr_key e))
  | _ -> Lother (expr_key e)

let same_lock a b = a.lk_expr = b.lk_expr && a.lk_kind = b.lk_kind

(* Pipelines apply their function argument: [f @@ x], [x |> f]. *)
let app_head fn args =
  match (ident_of_expr fn, args) with
  | Some [ "@@" ], (_, f) :: rest when ident_of_expr f <> None ->
      (ident_of_expr f, rest)
  | Some [ "|>" ], [ (_, x); (_, f) ] when ident_of_expr f <> None ->
      (ident_of_expr f, [ (Asttypes.Nolabel, x) ])
  | h, _ -> (h, args)

let rec is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) -> is_function e
  | _ -> false

let rec fun_body e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> fun_body body
  | Pexp_constraint (e, _) -> fun_body e
  | _ -> e

let lock_create_kind e =
  (* [let m = Mutex.create ()], [let m = Sync.Mutex.create ()]; only a
     direct create names a definition site *)
  match e.pexp_desc with
  | Pexp_apply (fn_e, _) -> (
      match ident_of_expr fn_e with
      | Some p -> (
          let p = drop_stdlib p in
          match List.rev p with
          | "create" :: "Mutex" :: _ ->
              Some (if List.mem "Sync" p then Fiber_mutex else Raw)
          | _ -> None)
      | None -> None)
  | _ -> None

(* ---------- the walk ---------- *)

let of_structure ~file ~waived_blocking structure =
  let modname =
    String.capitalize_ascii
      (Filename.remove_extension (Filename.basename file))
  in
  let fns = ref [] in
  let lockdefs = ref [] in
  let refs_proc = ref false in
  let shadowed = defined_module_names structure in
  let shadows m = List.mem m shadowed in
  let fresh_fn ~prefix ~name ~line =
    let fn =
      {
        fn_name = String.concat "." (prefix @ [ name ]);
        fn_file = file;
        fn_line = line;
        fn_calls = [];
        fn_acquires = [];
        fn_blocks = None;
        fn_loops = [];
      }
    in
    fns := fn :: !fns;
    fn
  in
  (* Scan one function body into [fn].  [held] is the mutable held-lock
     stack; [loops] are the call sinks of the enclosing loop bodies;
     [coupled] is true inside coupled/coupled_syscall arguments. *)
  let rec scan fn ~prefix ~held ~coupled ~loops e =
    let record_call loc path =
      (* operator applications -- [>=], [:=], [land] is kept since it
         is alphabetic but harmless -- are never resolvable and never
         park/block; recording them would only defeat the
         call-free-loop exemption and pad the evidence lists *)
      let is_operator =
        match path with
        | [ s ] when s <> "" -> (
            match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> false | _ -> true)
        | _ -> false
      in
      if is_operator then ()
      else begin
      let line, col = pos_of loc in
      (match path with
      | ("Proc" | "Proc_io" | "Process") :: _ -> refs_proc := true
      | _ -> ());
      let c =
        { c_path = path; c_line = line; c_col = col; c_coupled = coupled;
          c_held = List.rev !held }
      in
      fn.fn_calls <- c :: fn.fn_calls;
      List.iter (fun sink -> sink := c :: !sink) loops;
      match blocking_leaf path with
      | Some leaf when (not coupled) && (not (waived_blocking line))
                       && fn.fn_blocks = None ->
          fn.fn_blocks <- Some (leaf, line, col)
      | _ -> ()
      end
    in
    let mk_lock kind m =
      { lk_expr = lock_expr_of m; lk_kind = kind; lk_module = prefix }
    in
    let rec go e =
      match e.pexp_desc with
      | Pexp_apply (fn_e, args) -> handle_apply fn_e args
      | Pexp_ident _ | Pexp_constant _ -> ()
      | Pexp_sequence (a, b) -> go a; go b
      | Pexp_let (rf, vbs, body) ->
          List.iter (handle_binding rf) vbs;
          go body
      | Pexp_ifthenelse (c, t, eo) ->
          go c;
          branch (t :: Option.to_list eo)
      | Pexp_match (s, cases) | Pexp_try (s, cases) ->
          go s;
          branch (List.map (fun c -> c.pc_rhs) cases)
      | Pexp_while (cond, body) ->
          handle_loop ~desc:"while loop" e.pexp_loc [ cond; body ]
      | Pexp_for (_, lo, hi, _, body) ->
          go lo; go hi;
          handle_loop ~desc:"for loop" e.pexp_loc [ body ]
      | Pexp_fun (_, _, _, body) -> closure body
      | Pexp_function cases -> List.iter (fun c -> closure c.pc_rhs) cases
      | _ ->
          (* generic descent for everything else, children in order *)
          let it =
            { Ast_iterator.default_iterator with expr = (fun _ c -> go c) }
          in
          Ast_iterator.default_iterator.expr it e
    and branch bodies =
      let entry = !held in
      let outs =
        List.map
          (fun b ->
            held := entry;
            go b;
            !held)
          bodies
      in
      (* after the join only locks held on every arm remain *)
      match outs with
      | [] -> held := entry
      | o0 :: rest ->
          held :=
            List.filter (fun l -> List.for_all (List.exists (same_lock l)) rest) o0
    and closure body =
      let saved = !held in
      held := [];
      go body;
      held := saved
    and handle_loop ~desc loc bodies =
      let sink = ref [] in
      let entry = !held in
      List.iter
        (fun b -> scan fn ~prefix ~held ~coupled ~loops:(sink :: loops) b)
        bodies;
      held := entry;
      let calls = List.rev !sink in
      let line, col = pos_of loc in
      fn.fn_loops <-
        { l_desc = desc; l_line = line; l_col = col; l_calls = calls;
          l_rmw = List.exists (fun c -> atomic_rmw c.c_path) calls }
        :: fn.fn_loops
    and handle_binding rf vb =
      let bound_name =
        match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt; _ } -> Some txt
        | _ -> None
      in
      match (rf, bound_name) with
      | Asttypes.Recursive, Some name when is_function vb.pvb_expr ->
          (* a nested [let rec f] that calls itself is a loop; its body
             runs in place, so it keeps the ambient held set *)
          let body = fun_body vb.pvb_expr in
          let sink = ref [] in
          let entry = !held in
          scan fn ~prefix ~held ~coupled ~loops:(sink :: loops) body;
          held := entry;
          let all = List.rev !sink in
          if List.exists (fun c -> c.c_path = [ name ]) all then begin
            let calls = List.filter (fun c -> c.c_path <> [ name ]) all in
            let line, col = pos_of vb.pvb_loc in
            fn.fn_loops <-
              { l_desc = Printf.sprintf "recursive function %s" name;
                l_line = line; l_col = col; l_calls = calls;
                l_rmw = List.exists (fun c -> atomic_rmw c.c_path) calls }
              :: fn.fn_loops
          end
      | _, Some _ when is_function vb.pvb_expr ->
          (* let-bound local function: executed in place by idiom, so
             scanned with the ambient held set (the anonymous-closure
             reset would hide a locked [go]-loop's shape) *)
          let entry = !held in
          go (fun_body vb.pvb_expr);
          held := entry
      | _ -> go vb.pvb_expr
    and handle_apply fn_e args =
      let head, args = app_head fn_e args in
      match head with
      | None ->
          go fn_e;
          List.iter (fun (_, a) -> go a) args
      | Some path -> (
          let path = drop_stdlib path in
          let is_coupled_head =
            match List.rev path with
            | ("coupled" | "coupled_syscall") :: _ -> true
            | _ -> false
          in
          if is_coupled_head then
            List.iter
              (fun (_, a) -> scan fn ~prefix ~held ~coupled:true ~loops a)
              args
          else
            match classify_lock_op ~shadows path with
            | Some (Acquire, kind) -> (
                match args with
                | (_, m) :: rest ->
                    List.iter (fun (_, a) -> go a) rest;
                    acquire fn_e.pexp_loc kind m
                | [] -> record_call fn_e.pexp_loc path)
            | Some (Release, kind) -> (
                match args with
                | (_, m) :: _ ->
                    let l = mk_lock kind m in
                    held := List.filter (fun h -> not (same_lock h l)) !held
                | [] -> ())
            | Some (With, kind) -> (
                match args with
                | (_, m) :: rest ->
                    acquire fn_e.pexp_loc kind m;
                    let l = mk_lock kind m in
                    List.iter
                      (fun (_, a) ->
                        match a.pexp_desc with
                        | Pexp_fun (_, _, _, body) ->
                            (* the body runs inside the acquisition *)
                            go body
                        | _ -> (
                            match ident_of_expr a with
                            | Some p ->
                                (* an ident callback, called with the
                                   lock held *)
                                record_call a.pexp_loc (drop_stdlib p)
                            | None -> go a))
                      rest;
                    held := List.filter (fun h -> not (same_lock h l)) !held
                | [] -> record_call fn_e.pexp_loc path)
            | Some (Cond_wait, kind) -> (
                match args with
                | [ (_, c); (_, m) ] ->
                    go c; go m;
                    let l = mk_lock kind m in
                    let saved = !held in
                    held := List.filter (fun h -> not (same_lock h l)) !held;
                    record_call fn_e.pexp_loc path;
                    held := saved
                | _ -> record_call fn_e.pexp_loc path)
            | None ->
                record_call fn_e.pexp_loc path;
                List.iter (fun (_, a) -> go a) args)
    and acquire loc kind m =
      let l = mk_lock kind m in
      let line, col = pos_of loc in
      fn.fn_acquires <-
        { a_lock = l; a_line = line; a_col = col; a_held = List.rev !held }
        :: fn.fn_acquires;
      held := l :: !held
    in
    go e
  in
  (* structure items, tracking the module prefix.  [init] lazily names
     the pseudo-function module-level code is attributed to. *)
  let rec items ~prefix ~init sis =
    List.iter
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (rf, vbs) ->
            List.iter (fun vb -> top_binding ~prefix ~init rf vb) vbs
        | Pstr_module mb -> sub_module ~prefix mb
        | Pstr_recmodule mbs -> List.iter (fun mb -> sub_module ~prefix mb) mbs
        | Pstr_eval (e, _) ->
            scan (init ()) ~prefix ~held:(ref []) ~coupled:false ~loops:[] e
        | _ -> ())
      sis
  and sub_module ~prefix mb =
    let rec unwrap me =
      match me.pmod_desc with
      | Pmod_structure sis -> Some sis
      | Pmod_constraint (me, _) -> unwrap me
      | _ -> None
    in
    match (mb.pmb_name.txt, unwrap mb.pmb_expr) with
    | Some name, Some sis ->
        let prefix = prefix @ [ name ] in
        items ~prefix ~init:(make_init ~prefix) sis
    | _ -> ()
  and make_init ~prefix =
    let cell = ref None in
    fun () ->
      match !cell with
      | Some fn -> fn
      | None ->
          let fn = fresh_fn ~prefix ~name:"(init)" ~line:1 in
          cell := Some fn;
          fn
  and top_binding ~prefix ~init rf vb =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = name; _ } ->
        let line, _ = pos_of vb.pvb_loc in
        if is_function vb.pvb_expr then begin
          let fn = fresh_fn ~prefix ~name ~line in
          let body = fun_body vb.pvb_expr in
          match rf with
          | Asttypes.Recursive ->
              (* a self-recursive top-level function is a loop *)
              let sink = ref [] in
              scan fn ~prefix ~held:(ref []) ~coupled:false
                ~loops:[ sink ] body;
              let all = List.rev !sink in
              if List.exists (fun c -> c.c_path = [ name ]) all then
                fn.fn_loops <-
                  { l_desc = Printf.sprintf "recursive function %s" name;
                    l_line = line; l_col = 0;
                    l_calls =
                      List.filter (fun c -> c.c_path <> [ name ]) all;
                    l_rmw =
                      List.exists
                        (fun c ->
                          c.c_path <> [ name ] && atomic_rmw c.c_path)
                        all }
                  :: fn.fn_loops
          | Asttypes.Nonrecursive ->
              scan fn ~prefix ~held:(ref []) ~coupled:false ~loops:[] body
        end
        else begin
          (match lock_create_kind vb.pvb_expr with
          | Some kind ->
              lockdefs :=
                (String.concat "." (prefix @ [ name ]), kind, line) :: !lockdefs
          | None -> ());
          scan (init ()) ~prefix ~held:(ref []) ~coupled:false ~loops:[]
            vb.pvb_expr
        end
    | _ ->
        scan (init ()) ~prefix ~held:(ref []) ~coupled:false ~loops:[]
          vb.pvb_expr
  in
  items ~prefix:[ modname ] ~init:(
    let cell = ref None in
    fun () ->
      match !cell with
      | Some fn -> fn
      | None ->
          let fn = fresh_fn ~prefix:[ modname ] ~name:"(init)" ~line:1 in
          cell := Some fn;
          fn)
    structure;
  let fns = List.rev !fns in
  List.iter
    (fun fn ->
      fn.fn_calls <- List.rev fn.fn_calls;
      fn.fn_acquires <- List.rev fn.fn_acquires;
      fn.fn_loops <- List.rev fn.fn_loops)
    fns;
  {
    fs_file = file;
    fs_module = modname;
    fs_fns = fns;
    fs_lockdefs = List.rev !lockdefs;
    fs_refs_proc = !refs_proc;
  }
