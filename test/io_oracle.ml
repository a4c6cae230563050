(* The list-based instance and solution readers that [Ufp_instance.Io]
   used before its streaming scanner, kept unchanged as the oracle the
   scanner is held to (test/test_instance.ml, io_compare.exe): same
   results bit for bit, same error messages. *)

module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution

exception Parse_error of string

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt in
  let words l = String.split_on_char ' ' l |> List.filter (fun w -> w <> "") in
  let int_of l w =
    match int_of_string_opt w with
    | Some v -> v
    | None -> fail "expected integer in %S" l
  in
  let float_of l w =
    match float_of_string_opt w with
    | Some v -> v
    | None -> fail "expected float in %S" l
  in
  let expect_kv key = function
    | l :: rest -> (
      match words l with
      | [ k; v ] when k = key -> (int_of l v, rest)
      | _ -> fail "expected %S line, got %S" key l)
    | [] -> fail "unexpected end of input, expected %S" key
  in
  (* Counts drive how many lines the reader consumes: a negative count
     must fail here, with its name, not later as a misleading
     "unexpected end of input" once the reader walks off the end. *)
  let expect_count key lines =
    let v, rest = expect_kv key lines in
    if v < 0 then fail "negative %s count %d" key v;
    (v, rest)
  in
  (* Structural validation lives in the constructors (Graph.add_edge,
     Request.make, Instance.create); only around those calls is an
     [Invalid_argument] a malformed-input symptom worth converting to a
     parse error. Anywhere else it is a programmer error and must keep
     propagating instead of being silently folded into [Error]. *)
  let constructed f = try f () with Invalid_argument msg -> raise (Parse_error msg) in
  let parse () =
    match lines with
    | [] -> fail "empty input"
    | header :: rest ->
      (match words header with
      | [ "ufp"; "1" ] -> ()
      | _ -> fail "bad header %S (expected \"ufp 1\")" header);
      let directed, rest = expect_kv "directed" rest in
      let n, rest = expect_count "vertices" rest in
      let m, rest = expect_count "edges" rest in
      let g = Graph.create ~directed:(directed <> 0) ~n in
      let rec read_edges k rest =
        if k = 0 then rest
        else
          match rest with
          | [] -> fail "unexpected end of input while reading edges"
          | l :: rest -> (
            match words l with
            | [ "e"; u; v; c ] ->
              constructed (fun () ->
                  ignore
                    (Graph.add_edge g ~u:(int_of l u) ~v:(int_of l v)
                       ~capacity:(float_of l c)));
              read_edges (k - 1) rest
            | _ -> fail "bad edge line %S" l)
      in
      let rest = read_edges m rest in
      let r_count, rest = expect_count "requests" rest in
      let reqs = ref [] in
      let rec read_requests k rest =
        if k = 0 then rest
        else
          match rest with
          | [] -> fail "unexpected end of input while reading requests"
          | l :: rest -> (
            match words l with
            | [ "r"; s; t; d; v ] ->
              reqs :=
                constructed (fun () ->
                    Request.make ~src:(int_of l s) ~dst:(int_of l t)
                      ~demand:(float_of l d) ~value:(float_of l v))
                :: !reqs;
              read_requests (k - 1) rest
            | _ -> fail "bad request line %S" l)
      in
      let leftover = read_requests r_count rest in
      if leftover <> [] then fail "trailing content: %S" (List.hd leftover);
      constructed (fun () -> Instance.create g (Array.of_list (List.rev !reqs)))
  in
  match parse () with
  | inst -> Ok inst
  | exception Parse_error msg -> Error msg

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg

let solution_of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt in
  let words l = String.split_on_char ' ' l |> List.filter (fun w -> w <> "") in
  let int_of l w =
    match int_of_string_opt w with
    | Some v -> v
    | None -> fail "expected integer in %S" l
  in
  let parse () =
    match lines with
    | [] -> fail "empty input"
    | header :: rest ->
      (match words header with
      | [ "ufp-solution"; "1" ] -> ()
      | _ -> fail "bad header %S (expected \"ufp-solution 1\")" header);
      let count, rest =
        match rest with
        | l :: rest -> (
          match words l with
          | [ "allocations"; n ] ->
            let n = int_of l n in
            (* Same scale-hardening rule as the instance reader: a
               negative count fails here with its name, not as a bogus
               end-of-input error after reading past the list. *)
            if n < 0 then fail "negative allocations count %d" n;
            (n, rest)
          | _ -> fail "expected \"allocations\" line, got %S" l)
        | [] -> fail "unexpected end of input"
      in
      let rec read k acc rest =
        if k = 0 then
          if rest = [] then List.rev acc
          else fail "trailing content: %S" (List.hd rest)
        else
          match rest with
          | [] -> fail "unexpected end of input while reading allocations"
          | l :: rest -> (
            match words l with
            | "a" :: req :: path ->
              read (k - 1)
                ({
                   Solution.request = int_of l req;
                   path = List.map (int_of l) path;
                 }
                :: acc)
                rest
            | _ -> fail "bad allocation line %S" l)
      in
      read count [] rest
  in
  match parse () with
  | sol -> Ok sol
  | exception Parse_error msg -> Error msg

let load_solution path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> solution_of_string text
  | exception Sys_error msg -> Error msg

(* --- Agreement --- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_request (a : Request.t) (b : Request.t) =
  a.Request.src = b.Request.src && a.Request.dst = b.Request.dst
  && same_bits a.Request.demand b.Request.demand
  && same_bits a.Request.value b.Request.value

let same_instance a b =
  let ga = Instance.graph a and gb = Instance.graph b in
  let same_edge i =
    let x = Graph.edge ga i and y = Graph.edge gb i in
    x.Graph.u = y.Graph.u && x.Graph.v = y.Graph.v
    && same_bits x.Graph.capacity y.Graph.capacity
  in
  Graph.is_directed ga = Graph.is_directed gb
  && Graph.n_vertices ga = Graph.n_vertices gb
  && Graph.n_edges ga = Graph.n_edges gb
  && List.for_all same_edge (List.init (Graph.n_edges ga) Fun.id)
  && Array.for_all2 same_request (Instance.requests a) (Instance.requests b)

(* The scanner streams edges into [Graph.of_edge_stream], whose
   validation messages are [Graph.add_edge]'s under its own name. *)
let same_message oracle scanner =
  let streamed = "Graph.of_edge_stream:" in
  let n = String.length streamed in
  String.equal oracle scanner
  || String.length scanner >= n
     && String.equal (String.sub scanner 0 n) streamed
     && String.equal oracle
          ("Graph.add_edge:" ^ String.sub scanner n (String.length scanner - n))

(* [None] when the two readers agree: both succeed with the same
   result, or both fail with the same message; otherwise what
   differs. *)
let disagreement same ~oracle ~scanner =
  match (oracle, scanner) with
  | Ok a, Ok b -> if same a b then None else Some "both succeed with different results"
  | Error a, Error b ->
    if same_message a b then None
    else Some (Printf.sprintf "messages differ: oracle %S, scanner %S" a b)
  | Ok _, Error b -> Some (Printf.sprintf "only the scanner fails: %S" b)
  | Error a, Ok _ -> Some (Printf.sprintf "only the oracle fails: %S" a)
