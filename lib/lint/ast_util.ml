(* AST plumbing shared by the rules: parse one source file with
   compiler-libs (Pparse; read-only, no ppx rewriting) and provide the
   two traversals every rule is built from:

   - [iter_idents]: every value identifier (and module path), with a
     flag telling whether the site sits inside the argument of a
     [coupled] application -- the paper's sanctioned
     escape hatch for blocking/thread-keyed syscalls (run them on the
     fiber's original KC).

   - [iter_atomic_frames]: per function body, the sequence of
     [Atomic.*] operations in source order, each with the printed form
     of the atomic expression it touches.  Nested [fun]s open fresh
     frames: a closure may run on another domain, so pairing across a
     closure boundary would be noise, and the seeded checker bugs are
     all same-frame shapes. *)

open Parsetree

let parse_impl path =
  match Pparse.parse_implementation ~tool_name:"ulplint" path with
  | ast -> Ok ast
  | exception e ->
      let msg =
        match Location.error_of_exn e with
        | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
        | _ -> Printexc.to_string e
      in
      Error
        (String.trim
           (String.map (function '\n' | '\r' -> ' ' | c -> c) msg))

(* ---------- paths ---------- *)

let path_segments file =
  List.filter
    (fun s -> s <> "" && s <> ".")
    (String.split_on_char '/' file)

let rec has_pair a b = function
  | x :: (y :: _ as rest) -> (x = a && y = b) || has_pair a b rest
  | _ -> false

let has_seg = List.mem

let flatten li = try Longident.flatten li with _ -> []

let drop_stdlib = function "Stdlib" :: p -> p | p -> p

let ident_of_expr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match flatten txt with [] -> None | p -> Some p)
  | _ -> None

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let expr_key e = try Pprintast.string_of_expression e with _ -> "<expr>"

(* ---------- ident walk with coupled-context tracking ---------- *)

let is_coupled_head fn =
  match ident_of_expr fn with
  | Some p -> (
      match List.rev p with
      | "coupled" :: _ -> true
      | _ -> false)
  | None -> false

let iter_idents ?(fmod = fun ~loc:_ _ -> ()) ~f structure =
  let in_coupled = ref false in
  let open Ast_iterator in
  let expr self e =
    match e.pexp_desc with
    | Pexp_apply (fn, args) when is_coupled_head fn ->
        self.expr self fn;
        let saved = !in_coupled in
        in_coupled := true;
        List.iter (fun (_, a) -> self.expr self a) args;
        in_coupled := saved
    | Pexp_ident { txt; loc } -> (
        match flatten txt with
        | [] -> ()
        | p -> f ~coupled:!in_coupled ~loc p)
    | _ -> default_iterator.expr self e
  in
  let module_expr self m =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> (
        match flatten txt with [] -> () | p -> fmod ~loc p)
    | _ -> ());
    default_iterator.module_expr self m
  in
  let it = { default_iterator with expr; module_expr } in
  it.structure it structure

(* ---------- locally defined module names ---------- *)

(* Every module name the file binds itself ([module Mutex = struct
   ... end] at any depth).  Rules keyed on a bare module path (the
   raw-mutex-in-fiber [Mutex.lock] pattern) use this to stand down when
   the file shadows the stdlib module with its own -- sync.ml's
   fiber-aware [Mutex] being the motivating case. *)
let defined_module_names structure =
  let names = ref [] in
  let open Ast_iterator in
  let module_binding self mb =
    (match mb.pmb_name.txt with
    | Some n -> names := n :: !names
    | None -> ());
    default_iterator.module_binding self mb
  in
  let it = { default_iterator with module_binding } in
  it.structure it structure;
  !names

(* ---------- per-function atomic operation sequences ---------- *)

type atomic_op = Aget | Aset | Acas | Afaa | Acmp

type aevent = {
  op : atomic_op;
  opname : string;
  key : string; (* printed form of the atomic expression *)
  line : int;
  col : int;
}

let atomic_op_of path =
  match List.rev (drop_stdlib path) with
  | op :: "Atomic" :: _ -> (
      match op with
      | "get" -> Some (Aget, op)
      | "set" -> Some (Aset, op)
      | "compare_and_set" | "exchange" -> Some (Acas, op)
      | "fetch_and_add" | "incr" | "decr" -> Some (Afaa, op)
      | _ -> None)
  | _ -> None

let comparisons = [ "<"; "<="; ">"; ">="; "="; "<>"; "=="; "!="; "compare" ]

(* [Atomic.get k] itself: the key [k] *)
let get_key e =
  match e.Parsetree.pexp_desc with
  | Pexp_apply (fn, (_, a0) :: _) -> (
      match Option.bind (ident_of_expr fn) atomic_op_of with
      | Some (Aget, _) -> Some (expr_key a0)
      | _ -> None)
  | _ -> None

let iter_atomic_frames ~analyze structure =
  let open Ast_iterator in
  (* a frame: its events, newest first, and the names it bound to an
     [Atomic.get] ([let n = Atomic.get k in]) *)
  let frames = ref [] in
  let push () = frames := (ref [], ref []) :: !frames in
  let pop () =
    match !frames with
    | (top, _) :: rest ->
        frames := rest;
        let evs = List.rev !top in
        if evs <> [] then analyze evs
    | [] -> assert false
  in
  let record ev =
    match !frames with (top, _) :: _ -> top := ev :: !top | [] -> ()
  in
  let alias name key =
    match !frames with (_, al) :: _ -> al := (name, key) :: !al | [] -> ()
  in
  (* the atomic key a comparison operand reads: a get, or a name bound
     to one in this frame *)
  let operand_key a =
    match get_key a with
    | Some k -> Some k
    | None -> (
        match (ident_of_expr a, !frames) with
        | Some [ name ], (_, al) :: _ -> List.assoc_opt name !al
        | _ -> None)
  in
  let expr self e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ ->
        push ();
        default_iterator.expr self e;
        pop ()
    | Pexp_let (_, vbs, _) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match (vb.pvb_pat.ppat_desc, get_key vb.pvb_expr) with
            | Ppat_var { txt; _ }, Some k -> alias txt k
            | _ -> ())
          vbs;
        default_iterator.expr self e
    | Pexp_apply (fn, ((_, a0) :: _ as args)) -> (
        match Option.bind (ident_of_expr fn) atomic_op_of with
        | Some (op, opname) ->
            (* walk the arguments first so a get nested inside a set's
               value expression registers before the set itself -- the
               [Atomic.set a (f (Atomic.get a))] increment-race shape *)
            List.iter (fun (_, a) -> self.expr self a) args;
            let line, col = pos_of e.pexp_loc in
            record { op; opname; key = expr_key a0; line; col }
        | None -> (
            default_iterator.expr self e;
            match ident_of_expr fn with
            | Some [ cmp ] when List.mem cmp comparisons ->
                let line, col = pos_of e.pexp_loc in
                List.iter
                  (fun (_, a) ->
                    match operand_key a with
                    | Some key -> record { op = Acmp; opname = cmp; key; line; col }
                    | None -> ())
                  args
            | _ -> ()))
    | _ -> default_iterator.expr self e
  in
  let it = { default_iterator with expr } in
  push ();
  it.structure it structure;
  pop ()
