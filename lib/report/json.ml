(* A minimal recursive-descent JSON reader and a printer.  The bench
   harness and ulplint both write and re-read their JSON files (--diff
   regression tables, CI validation), and the toolchain here has no
   JSON library -- this covers the full grammar at report scale,
   nothing more. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail pos msg =
  raise (Parse_error (Printf.sprintf "offset %d: %s" pos msg))

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c.pos (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos (Printf.sprintf "expected %s" word)

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail c.pos "unterminated escape"
        | Some e ->
            advance c;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if c.pos + 4 > String.length c.s then
                  fail c.pos "truncated \\u escape";
                let hex = String.sub c.s c.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail c.pos "bad \\u escape"
                in
                c.pos <- c.pos + 4;
                (* UTF-8 encode the BMP code point; surrogate pairs of
                   astral-plane characters decode as two replacement
                   sequences, which is fine for bench metadata *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | _ -> fail (c.pos - 1) "unknown escape");
            go ())
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let consume_while pred =
    let rec go () =
      match peek c with
      | Some ch when pred ch ->
          advance c;
          go ()
      | _ -> ()
    in
    go ()
  in
  (match peek c with Some '-' -> advance c | _ -> ());
  consume_while (function '0' .. '9' -> true | _ -> false);
  (match peek c with
  | Some '.' ->
      advance c;
      consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  (match peek c with
  | Some ('e' | 'E') ->
      advance c;
      (match peek c with Some ('+' | '-') -> advance c | _ -> ());
      consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  let text = String.sub c.s start (c.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> fail start (Printf.sprintf "bad number %S" text)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '"' ->
      advance c;
      Str (parse_string_body c)
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else Obj (parse_members c [])
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else List (parse_elements c [])
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c.pos (Printf.sprintf "unexpected %C" ch)

and parse_members c acc =
  skip_ws c;
  expect c '"';
  let key = parse_string_body c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  skip_ws c;
  match peek c with
  | Some ',' ->
      advance c;
      parse_members c ((key, v) :: acc)
  | Some '}' ->
      advance c;
      List.rev ((key, v) :: acc)
  | _ -> fail c.pos "expected ',' or '}'"

and parse_elements c acc =
  let v = parse_value c in
  skip_ws c;
  match peek c with
  | Some ',' ->
      advance c;
      parse_elements c (v :: acc)
  | Some ']' ->
      advance c;
      List.rev (v :: acc)
  | _ -> fail c.pos "expected ',' or ']'"

let parse s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c.pos "trailing garbage";
  v

let parse_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (path ^ ": truncated read")
  | content -> (
      match parse content with
      | v -> Ok v
      | exception Parse_error msg -> Error (path ^ ": " ^ msg))

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None

(* ---------- printer ---------- *)

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

(* Integral values print without a fraction (counts stay "1024", not
   "1024.0"); the rest print in the fewest digits that read back to the
   same float. *)
let number f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Json.print: non-finite number %g" f);
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let seq b opening closing sep item l =
  Buffer.add_string b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b sep;
      item b x)
    l;
  Buffer.add_string b closing

let rec inline b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> Buffer.add_string b (number f)
  | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | List l -> seq b "[" "]" ", " inline l
  | Obj kvs -> seq b "{" "}" ", " pair kvs

and pair b (k, v) =
  inline b (Str k);
  Buffer.add_string b ": ";
  inline b v

(* One top-level member per line, and one line per element of a
   member's list of objects: a BENCH or LINT file then diffs row by
   row. *)
let print v =
  let b = Buffer.create 4096 in
  let top b (k, v) =
    Buffer.add_string b "  ";
    match v with
    | List (Obj _ :: _ as rows) ->
        inline b (Str k);
        seq b ": [\n    " "\n  ]" ",\n    " inline rows
    | v -> pair b (k, v)
  in
  (match v with
  | Obj (_ :: _ as kvs) -> seq b "{\n" "\n}" ",\n" top kvs
  | v -> inline b v);
  Buffer.add_char b '\n';
  Buffer.contents b

let write_file path v =
  Out_channel.with_open_bin path (fun oc -> output_string oc (print v))
