module Graph = Ufp_graph.Graph

let to_string inst =
  let g = Instance.graph inst in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "ufp 1\n";
  Buffer.add_string buf
    (Printf.sprintf "directed %d\n" (if Graph.is_directed g then 1 else 0));
  Buffer.add_string buf (Printf.sprintf "vertices %d\n" (Graph.n_vertices g));
  Buffer.add_string buf (Printf.sprintf "edges %d\n" (Graph.n_edges g));
  Graph.fold_edges
    (fun e () ->
      Buffer.add_string buf
        (Printf.sprintf "e %d %d %.17g\n" e.Graph.u e.Graph.v e.Graph.capacity))
    g ();
  Buffer.add_string buf (Printf.sprintf "requests %d\n" (Instance.n_requests inst));
  Array.iter
    (fun (r : Request.t) ->
      Buffer.add_string buf
        (Printf.sprintf "r %d %d %.17g %.17g\n" r.Request.src r.Request.dst
           r.Request.demand r.Request.value))
    (Instance.requests inst);
  Buffer.contents buf

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- The scanner: the one tokenizer of both readers --- *)

(* A line-oriented scanner over a small buffer that [fill] tops up from
   the source (a string or a channel), so reading allocates nothing in
   proportion to the input: only the buffer, which grows to the longest
   line when a line does not fit. A line is what [String.split_on_char
   '\n'] yields, trimmed as by [String.trim]; blank lines and lines
   starting with [#] are skipped; words are split on ' ' only, empty
   words dropped. Those are the rules of the list-based reader this
   replaced (kept as the oracle in test/io_oracle.ml), error messages
   included. *)
type scanner = {
  (* [fill buf off len] copies up to [len] bytes of the source to [buf]
     at [off] and returns how many; 0 once the source ends. *)
  fill : Bytes.t -> int -> int -> int;
  (* Bytes of the source not yet filled in, as far as its length is
     known; it only bounds how many lines are left. *)
  mutable unread : int;
  mutable buf : Bytes.t;
  mutable pos : int;  (* first byte of [buf] not yet scanned *)
  mutable lim : int;  (* end of the filled part of [buf] *)
  mutable lo : int;  (* the current line is [buf.[lo .. hi - 1]] *)
  mutable hi : int;
  word_lo : int array;  (* bounds of the current line's first words *)
  word_hi : int array;
  parsed : float array;  (* the slot [Decimal.float_in] writes *)
}

let buffer_bytes = 4096

(* The longest fixed-shape line, a request line, has five words. *)
let max_words = 5

let scanner ~length fill =
  {
    fill;
    unread = length;
    buf = Bytes.create buffer_bytes;
    pos = 0;
    lim = 0;
    lo = 0;
    hi = 0;
    word_lo = Array.make max_words 0;
    word_hi = Array.make max_words 0;
    parsed = [| 0.0 |];
  }

let string_scanner text =
  let next = ref 0 in
  scanner ~length:(String.length text) (fun buf off len ->
      let n = min len (String.length text - !next) in
      Bytes.blit_string text !next buf off n;
      next := !next + n;
      n)

(* Move the unscanned bytes to the front of the buffer, doubling it
   when they fill it (a line longer than the buffer), and fill the rest
   from the source. False when the source has ended. *)
let refill sc =
  let keep = sc.lim - sc.pos in
  if keep = Bytes.length sc.buf then begin
    let buf = Bytes.create (2 * keep) in
    Bytes.blit sc.buf sc.pos buf 0 keep;
    sc.buf <- buf
  end
  else Bytes.blit sc.buf sc.pos sc.buf 0 keep;
  sc.pos <- 0;
  let n = sc.fill sc.buf keep (Bytes.length sc.buf - keep) in
  sc.unread <- sc.unread - n;
  sc.lim <- keep + n;
  n > 0

(* Index of the '\n' that ends the line starting at [sc.pos], or
   [sc.lim] when the source ends first. [i] is the next byte to test;
   a refill moves the line to the front of the buffer. *)
let rec line_end sc i =
  let buf = sc.buf and lim = sc.lim in
  let i = ref i in
  while !i < lim && Bytes.unsafe_get buf !i <> '\n' do
    incr i
  done;
  if !i < lim then !i
  else begin
    let scanned = !i - sc.pos in
    if refill sc then line_end sc scanned else sc.lim
  end

let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Advance to the next line that is neither blank nor a comment; false
   at the end of the input. *)
let rec next_line sc =
  if sc.pos >= sc.lim && not (refill sc) then false
  else begin
    let e = line_end sc sc.pos in
    let lo = ref sc.pos and hi = ref e in
    sc.pos <- (if e < sc.lim then e + 1 else e);
    while !lo < !hi && is_blank (Bytes.unsafe_get sc.buf !lo) do
      incr lo
    done;
    while !hi > !lo && is_blank (Bytes.unsafe_get sc.buf (!hi - 1)) do
      decr hi
    done;
    if !lo = !hi || Bytes.unsafe_get sc.buf !lo = '#' then next_line sc
    else begin
      sc.lo <- !lo;
      sc.hi <- !hi;
      true
    end
  end

(* The current line, for error messages. *)
let line sc = Bytes.sub_string sc.buf sc.lo (sc.hi - sc.lo)

(* Split the current line into words: record the bounds of the first
   [max_words] and return how many words there are, counting no
   further than [max_words + 1]. *)
let split sc =
  let buf = sc.buf and hi = sc.hi in
  let n = ref 0 and i = ref sc.lo in
  while !n <= max_words && !i < hi do
    if Bytes.unsafe_get buf !i = ' ' then incr i
    else begin
      let start = !i in
      while !i < hi && Bytes.unsafe_get buf !i <> ' ' do
        incr i
      done;
      if !n < max_words then begin
        sc.word_lo.(!n) <- start;
        sc.word_hi.(!n) <- !i
      end;
      incr n
    end
  done;
  !n

let rec same_from buf lo s j =
  j = String.length s || (Bytes.get buf (lo + j) = String.get s j && same_from buf lo s (j + 1))

let word_is sc k s =
  sc.word_hi.(k) - sc.word_lo.(k) = String.length s && same_from sc.buf sc.word_lo.(k) s 0

(* [int_of_string] of [buf.[lo .. hi - 1]], and below [float_of_string]
   of word [k]: converted in the buffer when {!Decimal} takes the token,
   else copied out for the standard conversion, which gives its value
   or its error. *)
let int_in sc lo hi =
  match Decimal.int_in sc.buf lo hi with
  | -1 -> (
    match int_of_string_opt (Bytes.sub_string sc.buf lo (hi - lo)) with
    | Some v -> v
    | None -> fail "expected integer in %S" (line sc))
  | v -> v

let int_of sc k = int_in sc sc.word_lo.(k) sc.word_hi.(k)

let float_of sc k =
  let lo = sc.word_lo.(k) and hi = sc.word_hi.(k) in
  if Decimal.float_in sc.buf lo hi sc.parsed then sc.parsed.(0)
  else
    match float_of_string_opt (Bytes.sub_string sc.buf lo (hi - lo)) with
    | Some v -> v
    | None -> fail "expected float in %S" (line sc)

(* How many edge lines the rest of the input can hold: an edge line
   has at least 7 bytes ("e 0 1 1") and a newline, which the last line
   of the input may lack. *)
let edge_lines_left sc = (max 0 sc.unread + sc.lim - sc.pos + 1) / 8

(* Structural validation lives in the constructors (Graph.of_edge_stream,
   Graph.add_edge, Request.make, Instance.create); only around those
   calls is an [Invalid_argument] a malformed-input symptom worth
   converting to a parse error. Anywhere else it is a programmer error
   and must keep propagating instead of being silently folded into
   [Error]. *)
let constructed f = try f () with Invalid_argument msg -> raise (Parse_error msg)

let parse read sc =
  match read sc with v -> Ok v | exception Parse_error msg -> Error msg

(* --- Instances --- *)

let expect_kv sc key =
  if not (next_line sc) then fail "unexpected end of input, expected %S" key;
  if not (split sc = 2 && word_is sc 0 key) then
    fail "expected %S line, got %S" key (line sc);
  int_of sc 1

(* Counts drive how many lines the reader consumes: a negative count
   must fail here, with its name, not later as a misleading
   "unexpected end of input" once the reader walks off the end. *)
let expect_count sc key =
  let v = expect_kv sc key in
  if v < 0 then fail "negative %s count %d" key v;
  v

(* The arguments are read right to left, the order in which the
   list-based reader evaluated them: a line with a bad float and a bad
   integer reports the float. *)
let edge_line sc =
  if not (next_line sc) then fail "unexpected end of input while reading edges";
  if not (split sc = 4 && word_is sc 0 "e") then fail "bad edge line %S" (line sc);
  let capacity = float_of sc 3 in
  let v = int_of sc 2 in
  let u = int_of sc 1 in
  (u, v, capacity)

let request_line sc =
  if not (next_line sc) then fail "unexpected end of input while reading requests";
  if not (split sc = 5 && word_is sc 0 "r") then fail "bad request line %S" (line sc);
  let value = float_of sc 4 in
  let demand = float_of sc 3 in
  let dst = int_of sc 2 in
  let src = int_of sc 1 in
  constructed (fun () -> Request.make ~src ~dst ~demand ~value)

(* The graph streams from the edge lines the rest of the input can
   hold. A larger count fails at the next line, too short for an edge
   line, with the message of the line-by-line reader and before
   anything of the declared size is allocated. Only an input longer
   than its reported length has lines to spare; they are added one by
   one. *)
let read_graph sc ~directed ~n ~m =
  let fits = min m (edge_lines_left sc) in
  let g =
    constructed (fun () ->
        Graph.of_edge_stream ~directed ~n ~m:fits ~f:(fun _ -> edge_line sc))
  in
  for _ = fits + 1 to m do
    let u, v, capacity = edge_line sc in
    constructed (fun () -> ignore (Graph.add_edge g ~u ~v ~capacity))
  done;
  g

(* The list grows with the lines actually there, so a count larger
   than the rest of the input fails where they run out. *)
let read_requests sc k = Array.of_list (List.init k (fun _ -> request_line sc))

let read_instance sc =
  if not (next_line sc) then fail "empty input";
  if not (split sc = 2 && word_is sc 0 "ufp" && word_is sc 1 "1") then
    fail "bad header %S (expected \"ufp 1\")" (line sc);
  let directed = expect_kv sc "directed" <> 0 in
  let n = expect_count sc "vertices" in
  let m = expect_count sc "edges" in
  let g = read_graph sc ~directed ~n ~m in
  let requests = read_requests sc (expect_count sc "requests") in
  if next_line sc then fail "trailing content: %S" (line sc);
  constructed (fun () -> Instance.create g requests)

let of_string text = parse read_instance (string_scanner text)

let write_file path text =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let save path inst = write_file path (to_string inst)

(* A file streams through the scanner's buffer; a source of unknown
   length (a pipe) is read whole first, so its length bounds the
   counts. *)
let load_with read path =
  let from_channel ic =
    match In_channel.length ic with
    | len -> scanner ~length:(Int64.to_int len) (In_channel.input ic)
    | exception Sys_error _ -> string_scanner (In_channel.input_all ic)
  in
  match In_channel.with_open_text path (fun ic -> parse read (from_channel ic)) with
  | result -> result
  | exception Sys_error msg -> Error msg

let load path = load_with read_instance path

(* --- Solutions --- *)

let solution_to_string (sol : Solution.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "ufp-solution 1\n";
  Buffer.add_string buf (Printf.sprintf "allocations %d\n" (List.length sol));
  List.iter
    (fun (a : Solution.allocation) ->
      Buffer.add_string buf
        (Printf.sprintf "a %d %s\n" a.Solution.request
           (String.concat " " (List.map string_of_int a.Solution.path))))
    sol;
  Buffer.contents buf

(* The path is every word after the request index: scanned in place,
   since a path has no length limit. *)
let allocation_line sc =
  if not (next_line sc) then fail "unexpected end of input while reading allocations";
  if not (split sc >= 2 && word_is sc 0 "a") then fail "bad allocation line %S" (line sc);
  let request = int_of sc 1 in
  let path = ref [] and i = ref sc.word_hi.(1) in
  while !i < sc.hi do
    if Bytes.get sc.buf !i = ' ' then incr i
    else begin
      let start = !i in
      while !i < sc.hi && Bytes.get sc.buf !i <> ' ' do
        incr i
      done;
      path := int_in sc start !i :: !path
    end
  done;
  { Solution.request; path = List.rev !path }

let read_solution sc =
  if not (next_line sc) then fail "empty input";
  if not (split sc = 2 && word_is sc 0 "ufp-solution" && word_is sc 1 "1") then
    fail "bad header %S (expected \"ufp-solution 1\")" (line sc);
  if not (next_line sc) then fail "unexpected end of input";
  if not (split sc = 2 && word_is sc 0 "allocations") then
    fail "expected \"allocations\" line, got %S" (line sc);
  let count = int_of sc 1 in
  (* Same scale-hardening rule as the instance reader: a negative count
     fails here with its name, not as a bogus end-of-input error after
     reading past the list. *)
  if count < 0 then fail "negative allocations count %d" count;
  let sol = List.init count (fun _ -> allocation_line sc) in
  if next_line sc then fail "trailing content: %S" (line sc);
  sol

let solution_of_string text = parse read_solution (string_scanner text)

let save_solution path sol = write_file path (solution_to_string sol)

let load_solution path = load_with read_solution path
