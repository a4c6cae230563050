(* The JSON reader shared by trace-check and bench-diff: full JSON
   grammar, recursive descent over one string (a trace line or a whole
   bench artifact), no library dependency.  \u escapes are kept raw;
   both checkers only compare ASCII names. *)

exception Bad of string

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

type cursor = { s : string; mutable i : int }

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let advance c = c.i <- c.i + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\r' | '\n') ->
      advance c;
      true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> raise (Bad (Printf.sprintf "expected %c, found %c" ch x))
  | None -> raise (Bad (Printf.sprintf "expected %c, found end of input" ch))

let literal c word value =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    value
  end
  else raise (Bad (Printf.sprintf "bad literal (expected %s)" word))

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> raise (Bad "unterminated string")
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some ('"' | '\\' | '/') -> Buffer.add_char buf c.s.[c.i]
      | Some 'u' ->
        if c.i + 4 >= String.length c.s then raise (Bad "truncated \\u escape");
        Buffer.add_string buf ("\\u" ^ String.sub c.s (c.i + 1) 4);
        c.i <- c.i + 4
      | _ -> raise (Bad "bad escape"));
      advance c;
      loop ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.i in
  let numchar = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> numchar ch | None -> false) do
    advance c
  done;
  let lit = String.sub c.s start (c.i - start) in
  match float_of_string_opt lit with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "bad number %S" lit))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some '{' -> parse_obj c
  | Some '[' -> parse_list c
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> raise (Bad (Printf.sprintf "unexpected character %c" ch))
  | None -> raise (Bad "unexpected end of input")

and parse_obj c =
  expect c '{';
  skip_ws c;
  if peek c = Some '}' then begin
    advance c;
    Obj []
  end
  else begin
    let fields = ref [] in
    let rec loop () =
      skip_ws c;
      let key = parse_string c in
      skip_ws c;
      expect c ':';
      let v = parse_value c in
      fields := (key, v) :: !fields;
      skip_ws c;
      match peek c with
      | Some ',' ->
        advance c;
        loop ()
      | Some '}' -> advance c
      | _ -> raise (Bad "expected , or } in object")
    in
    loop ();
    Obj (List.rev !fields)
  end

and parse_list c =
  expect c '[';
  skip_ws c;
  if peek c = Some ']' then begin
    advance c;
    List []
  end
  else begin
    let items = ref [] in
    let rec loop () =
      let v = parse_value c in
      items := v :: !items;
      skip_ws c;
      match peek c with
      | Some ',' ->
        advance c;
        loop ()
      | Some ']' -> advance c
      | _ -> raise (Bad "expected , or ] in array")
    in
    loop ();
    List (List.rev !items)
  end

(* Exactly one value, optionally surrounded by whitespace. *)
let parse s =
  let c = { s; i = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.i <> String.length s then raise (Bad "trailing garbage after value");
  v
