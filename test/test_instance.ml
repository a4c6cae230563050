(* Tests for Ufp_instance: request, instance, solution, workloads, io. *)

module Graph = Ufp_graph.Graph
module Gen = Ufp_graph.Generators
module Dijkstra = Ufp_graph.Dijkstra
module Request = Ufp_instance.Request
module Instance = Ufp_instance.Instance
module Solution = Ufp_instance.Solution
module Workloads = Ufp_instance.Workloads
module Io = Ufp_instance.Io
module Rng = Ufp_prelude.Rng
module Float_tol = Ufp_prelude.Float_tol

let check_float = Alcotest.(check (float Float_tol.check_eps))

let line_graph caps =
  (* 0 - 1 - 2 - ... directed chain with the given capacities. *)
  let n = Array.length caps + 1 in
  let g = Graph.create ~directed:true ~n in
  Array.iteri (fun i c -> ignore (Graph.add_edge g ~u:i ~v:(i + 1) ~capacity:c)) caps;
  g

(* --- Request --- *)

let test_request_make () =
  let r = Request.make ~src:0 ~dst:3 ~demand:0.5 ~value:2.0 in
  Alcotest.(check int) "src" 0 r.Request.src;
  Alcotest.(check int) "dst" 3 r.Request.dst;
  check_float "demand" 0.5 r.Request.demand;
  check_float "value" 2.0 r.Request.value;
  check_float "density" 0.25 (Request.density r)

let test_request_validation () =
  Alcotest.check_raises "src = dst" (Invalid_argument "Request.make: src = dst")
    (fun () -> ignore (Request.make ~src:1 ~dst:1 ~demand:1.0 ~value:1.0));
  Alcotest.check_raises "bad demand"
    (Invalid_argument "Request.make: demand must be positive and finite")
    (fun () -> ignore (Request.make ~src:0 ~dst:1 ~demand:0.0 ~value:1.0));
  Alcotest.check_raises "nan demand"
    (Invalid_argument "Request.make: demand must be positive and finite")
    (fun () -> ignore (Request.make ~src:0 ~dst:1 ~demand:nan ~value:1.0));
  Alcotest.check_raises "bad value"
    (Invalid_argument "Request.make: value must be positive and finite")
    (fun () -> ignore (Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:(-1.0)))

let test_request_with_type () =
  let r = Request.make ~src:0 ~dst:3 ~demand:0.5 ~value:2.0 in
  let r' = Request.with_type r ~demand:0.25 ~value:3.0 in
  Alcotest.(check int) "src kept" 0 r'.Request.src;
  check_float "new demand" 0.25 r'.Request.demand;
  Alcotest.(check bool) "equal reflexive" true (Request.equal r r);
  Alcotest.(check bool) "unequal" false (Request.equal r r')

(* --- Instance --- *)

let test_instance_create () =
  let g = line_graph [| 2.0; 3.0 |] in
  let reqs = [| Request.make ~src:0 ~dst:2 ~demand:1.0 ~value:1.0 |] in
  let inst = Instance.create g reqs in
  Alcotest.(check int) "n_requests" 1 (Instance.n_requests inst);
  Alcotest.(check bool) "request accessor" true
    (Request.equal (Instance.request inst 0) reqs.(0));
  Alcotest.check_raises "bad index"
    (Invalid_argument "Instance.request: index out of range") (fun () ->
      ignore (Instance.request inst 5));
  Alcotest.check_raises "endpoint out of range"
    (Invalid_argument "Instance.create: request endpoint out of range")
    (fun () ->
      ignore
        (Instance.create g [| Request.make ~src:0 ~dst:9 ~demand:1.0 ~value:1.0 |]))

let test_instance_request_array_copied () =
  let g = line_graph [| 2.0 |] in
  let reqs = [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0 |] in
  let inst = Instance.create g reqs in
  reqs.(0) <- Request.make ~src:0 ~dst:1 ~demand:0.5 ~value:9.0;
  check_float "instance unaffected by caller mutation" 1.0
    (Instance.request inst 0).Request.demand

let test_instance_with_request () =
  let g = line_graph [| 2.0; 3.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:2 ~demand:1.0 ~value:1.0 |]
  in
  let inst' =
    Instance.with_request inst 0
      (Request.make ~src:0 ~dst:2 ~demand:0.5 ~value:4.0)
  in
  check_float "replaced" 0.5 (Instance.request inst' 0).Request.demand;
  check_float "original intact" 1.0 (Instance.request inst 0).Request.demand;
  Alcotest.check_raises "endpoints fixed"
    (Invalid_argument "Instance.with_request: endpoints are public and fixed")
    (fun () ->
      ignore
        (Instance.with_request inst 0
           (Request.make ~src:1 ~dst:2 ~demand:1.0 ~value:1.0)))

let test_instance_bound_normalize () =
  let g = line_graph [| 6.0; 9.0 |] in
  let reqs =
    [|
      Request.make ~src:0 ~dst:2 ~demand:2.0 ~value:1.0;
      Request.make ~src:0 ~dst:1 ~demand:3.0 ~value:2.0;
    |]
  in
  let inst = Instance.create g reqs in
  check_float "max demand" 3.0 (Instance.max_demand inst);
  check_float "bound" 2.0 (Instance.bound inst);
  Alcotest.(check bool) "not normalized" false (Instance.is_normalized inst);
  let norm = Instance.normalize inst in
  Alcotest.(check bool) "normalized" true (Instance.is_normalized norm);
  check_float "bound preserved" 2.0 (Instance.bound norm);
  check_float "min capacity is bound" 2.0 (Graph.min_capacity (Instance.graph norm));
  check_float "values unchanged" 2.0 (Instance.request norm 1).Request.value;
  check_float "demands scaled" (2.0 /. 3.0) (Instance.request norm 0).Request.demand;
  check_float "total value" 3.0 (Instance.total_value norm)

let test_instance_normalize_identity () =
  let g = line_graph [| 5.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0 |]
  in
  Alcotest.(check bool) "already normalised is shared" true
    (Instance.normalize inst == inst)

let test_meets_bound () =
  (* ln 2 ~ 0.693; with eps = 1 the bound demands B >= 0.693. *)
  let g = line_graph [| 2.0; 3.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:2 ~demand:1.0 ~value:1.0 |]
  in
  Alcotest.(check bool) "meets with eps=1" true (Instance.meets_bound inst ~eps:1.0);
  Alcotest.(check bool) "fails with eps=0.1" false
    (Instance.meets_bound inst ~eps:0.1)

(* --- Solution --- *)

let simple_instance () =
  (* Chain 0 -> 1 -> 2 with capacity 1 on both edges, two unit requests. *)
  let g = line_graph [| 1.0; 1.0 |] in
  Instance.create g
    [|
      Request.make ~src:0 ~dst:2 ~demand:1.0 ~value:2.0;
      Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0;
    |]

let test_solution_value_loads () =
  let inst = simple_instance () in
  let sol = [ { Solution.request = 0; path = [ 0; 1 ] } ] in
  check_float "value" 2.0 (Solution.value inst sol);
  Alcotest.(check (array (float Float_tol.check_eps))) "loads" [| 1.0; 1.0 |]
    (Solution.edge_loads inst sol);
  Alcotest.(check (list int)) "selected" [ 0 ] (Solution.selected sol);
  Alcotest.(check bool) "mem" true (Solution.mem sol 0);
  Alcotest.(check bool) "not mem" false (Solution.mem sol 1);
  check_float "empty value" 0.0 (Solution.value inst Solution.empty)

let test_solution_feasible () =
  let inst = simple_instance () in
  Alcotest.(check bool) "single allocation ok" true
    (Solution.is_feasible inst [ { Solution.request = 0; path = [ 0; 1 ] } ]);
  Alcotest.(check bool) "both overload edge 0" false
    (Solution.is_feasible inst
       [
         { Solution.request = 0; path = [ 0; 1 ] };
         { Solution.request = 1; path = [ 0 ] };
       ])

let test_solution_check_errors () =
  let inst = simple_instance () in
  let err sol =
    match Solution.check inst sol with Ok () -> "ok" | Error m -> m
  in
  Alcotest.(check bool) "unknown request" true
    (String.length (err [ { Solution.request = 7; path = [ 0 ] } ]) > 0);
  (match Solution.check inst [ { Solution.request = 0; path = [] } ] with
  | Error m ->
    Alcotest.(check bool) "empty path reported" true
      (String.length m > 0)
  | Ok () -> Alcotest.fail "empty path accepted");
  (match
     Solution.check inst
       [
         { Solution.request = 0; path = [ 0; 1 ] };
         { Solution.request = 0; path = [ 0; 1 ] };
       ]
   with
  | Error m ->
    Alcotest.(check bool) "duplicate reported" true
      (String.length m > 0)
  | Ok () -> Alcotest.fail "duplicate accepted");
  (* Path not reaching the target. *)
  (match Solution.check inst [ { Solution.request = 0; path = [ 0 ] } ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "truncated path accepted")

let test_solution_repetitions () =
  let g = line_graph [| 3.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0 |]
  in
  let sol =
    [
      { Solution.request = 0; path = [ 0 ] };
      { Solution.request = 0; path = [ 0 ] };
    ]
  in
  Alcotest.(check bool) "rejected without repetitions" false
    (Solution.is_feasible inst sol);
  Alcotest.(check bool) "accepted with repetitions" true
    (Solution.is_feasible ~repetitions:true inst sol);
  check_float "value counts repeats" 2.0 (Solution.value inst sol)

let test_solution_pp () =
  let inst = simple_instance () in
  let s =
    Format.asprintf "%a" Solution.pp [ { Solution.request = 0; path = [ 0; 1 ] } ]
  in
  ignore inst;
  Alcotest.(check bool) "renders" true (String.length s > 5)

(* --- Workloads --- *)

let test_random_requests () =
  let rng = Rng.create 3 in
  let g = Gen.grid ~rows:4 ~cols:4 ~capacity:10.0 in
  let reqs = Workloads.random_requests rng g ~count:30 () in
  Alcotest.(check int) "count" 30 (Array.length reqs);
  Array.iter
    (fun r ->
      Alcotest.(check bool) "reachable pair" true
        (Dijkstra.reachable g ~src:r.Request.src ~dst:r.Request.dst);
      Alcotest.(check bool) "demand range" true
        (r.Request.demand >= 0.2 && r.Request.demand <= 1.0);
      Alcotest.(check bool) "value range" true
        (r.Request.value >= 0.5 && r.Request.value <= 2.0))
    reqs

let test_random_requests_deterministic () =
  let mk () =
    let rng = Rng.create 44 in
    let g = Gen.grid ~rows:3 ~cols:3 ~capacity:5.0 in
    Workloads.random_requests rng g ~count:10 ()
  in
  let a = mk () and b = mk () in
  Array.iteri
    (fun i r -> Alcotest.(check bool) "same request" true (Request.equal r b.(i)))
    a

let test_value_per_hop () =
  let rng = Rng.create 6 in
  let g = Gen.grid ~rows:4 ~cols:4 ~capacity:10.0 in
  let reqs =
    Workloads.random_requests_value_per_hop rng g ~count:20 ~value_per_hop:1.0 ()
  in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "positive value" true (r.Request.value > 0.0))
    reqs

let test_staircase_requests () =
  let sc = Gen.staircase ~levels:3 ~capacity:2.0 in
  let reqs = Workloads.staircase_requests sc ~per_source:2 in
  Alcotest.(check int) "count" 6 (Array.length reqs);
  Array.iteri
    (fun k r ->
      Alcotest.(check int) "source by level" sc.Gen.sources.(k / 2) r.Request.src;
      Alcotest.(check int) "sink" sc.Gen.sink r.Request.dst;
      check_float "unit demand" 1.0 r.Request.demand;
      check_float "unit value" 1.0 r.Request.value)
    reqs

let test_gadget7_requests () =
  let reqs = Workloads.gadget7_requests ~per_pair:3 in
  Alcotest.(check int) "count" 12 (Array.length reqs);
  let open Gen.Gadget7 in
  Alcotest.(check (pair int int)) "first pair" (v1, v3)
    (reqs.(0).Request.src, reqs.(0).Request.dst);
  Alcotest.(check (pair int int)) "last pair" (v3, v4)
    (reqs.(11).Request.src, reqs.(11).Request.dst)

let test_all_pairs_unit () =
  let g = line_graph [| 1.0; 1.0 |] in
  let reqs = Workloads.all_pairs_unit g ~demand:1.0 ~value:2.0 in
  (* Chain 0 -> 1 -> 2: pairs (0,1), (0,2), (1,2). *)
  Alcotest.(check int) "three ordered pairs" 3 (Array.length reqs);
  Array.iter (fun r -> check_float "value" 2.0 r.Request.value) reqs

(* Directed hub graph: 0 is the high-degree hub (0 -> 1, 2, 3), 1 has a
   single edge 1 -> 2, and 3 -> 4 extends the hub's forward cone. *)
let hub_graph () =
  let g = Graph.create ~directed:true ~n:5 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0);
  ignore (Graph.add_edge g ~u:0 ~v:2 ~capacity:1.0);
  ignore (Graph.add_edge g ~u:0 ~v:3 ~capacity:1.0);
  ignore (Graph.add_edge g ~u:1 ~v:2 ~capacity:1.0);
  ignore (Graph.add_edge g ~u:3 ~v:4 ~capacity:1.0);
  g

let test_hub_requests () =
  let g = hub_graph () in
  let reqs = Workloads.hub_requests (Rng.create 5) g ~count:9 ~sources:2 () in
  Alcotest.(check int) "count" 9 (Array.length reqs);
  Array.iteri
    (fun k r ->
      (* Sources round-robin over the two highest-out-degree vertices
         (0 with degree 3, then 1); destinations stay inside the
         source's forward cone. *)
      let expected_src = if k mod 2 = 0 then 0 else 1 in
      Alcotest.(check int) "round-robin source" expected_src r.Request.src;
      Alcotest.(check bool) "reachable dst" true
        (Dijkstra.reachable g ~src:r.Request.src ~dst:r.Request.dst);
      Alcotest.(check bool) "demand in range" true
        (r.Request.demand >= 0.2 && r.Request.demand <= 1.0))
    reqs;
  let again = Workloads.hub_requests (Rng.create 5) g ~count:9 ~sources:2 () in
  Alcotest.(check bool) "deterministic" true
    (Array.for_all2 Request.equal reqs again)

let test_hub_requests_validation () =
  let g = hub_graph () in
  Alcotest.check_raises "negative count"
    (Invalid_argument "Workloads.hub_requests: negative count") (fun () ->
      ignore (Workloads.hub_requests (Rng.create 1) g ~count:(-1) ()));
  Alcotest.check_raises "bad sources"
    (Invalid_argument "Workloads.hub_requests: sources <= 0") (fun () ->
      ignore (Workloads.hub_requests (Rng.create 1) g ~count:1 ~sources:0 ()));
  let empty = Graph.create ~directed:true ~n:0 in
  Alcotest.check_raises "empty graph"
    (Invalid_argument "Workloads.hub_requests: empty graph") (fun () ->
      ignore (Workloads.hub_requests (Rng.create 1) empty ~count:1 ()));
  let edgeless = Graph.create ~directed:true ~n:3 in
  Alcotest.check_raises "edgeless graph"
    (Failure "Workloads.hub_requests: no vertex reaches any other vertex")
    (fun () -> ignore (Workloads.hub_requests (Rng.create 1) edgeless ~count:1 ()))

(* --- Io --- *)

let test_io_round_trip () =
  let rng = Rng.create 12 in
  let g =
    Gen.erdos_renyi rng ~n:8 ~edge_prob:0.4 ~directed:true ~capacity_lo:1.0
      ~capacity_hi:7.0
  in
  if Graph.n_edges g = 0 then ()
  else begin
    let reqs = Workloads.random_requests rng g ~count:5 () in
    let inst = Instance.create g reqs in
    match Io.of_string (Io.to_string inst) with
    | Error m -> Alcotest.fail ("round trip failed: " ^ m)
    | Ok inst' ->
      let g' = Instance.graph inst' in
      Alcotest.(check int) "vertices" (Graph.n_vertices g) (Graph.n_vertices g');
      Alcotest.(check int) "edges" (Graph.n_edges g) (Graph.n_edges g');
      Alcotest.(check bool) "directed" (Graph.is_directed g) (Graph.is_directed g');
      for e = 0 to Graph.n_edges g - 1 do
        let a = Graph.edge g e and b = Graph.edge g' e in
        Alcotest.(check bool) "edge equal" true
          (a.Graph.u = b.Graph.u && a.Graph.v = b.Graph.v
          && a.Graph.capacity = b.Graph.capacity)
      done;
      Alcotest.(check int) "requests" (Instance.n_requests inst)
        (Instance.n_requests inst');
      for i = 0 to Instance.n_requests inst - 1 do
        Alcotest.(check bool) "request equal" true
          (Request.equal (Instance.request inst i) (Instance.request inst' i))
      done
  end

let test_io_comments_and_blanks () =
  let text =
    "# a comment\n\nufp 1\ndirected 1\nvertices 2\nedges 1\ne 0 1 2.5\n\
     # another\nrequests 1\nr 0 1 1 3\n\n"
  in
  match Io.of_string text with
  | Ok inst ->
    Alcotest.(check int) "one request" 1 (Instance.n_requests inst);
    check_float "capacity" 2.5 (Graph.capacity (Instance.graph inst) 0)
  | Error m -> Alcotest.fail m

let expect_parse_error text =
  match Io.of_string text with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error m -> Alcotest.(check bool) "has message" true (String.length m > 0)

let test_io_errors () =
  expect_parse_error "";
  expect_parse_error "nonsense";
  expect_parse_error "ufp 2\ndirected 1\nvertices 2\nedges 0\nrequests 0\n";
  expect_parse_error "ufp 1\ndirected 1\nvertices 2\nedges 1\n";
  expect_parse_error "ufp 1\ndirected 1\nvertices 2\nedges 1\ne 0 1 xyz\nrequests 0\n";
  expect_parse_error
    "ufp 1\ndirected 1\nvertices 2\nedges 1\ne 0 1 1.0\nrequests 1\nr 0 1 1\n";
  expect_parse_error
    "ufp 1\ndirected 1\nvertices 2\nedges 1\ne 0 1 1.0\nrequests 0\ntrailing\n";
  (* Semantically invalid: self-loop edge. *)
  expect_parse_error
    "ufp 1\ndirected 1\nvertices 2\nedges 1\ne 0 0 1.0\nrequests 0\n";
  (* Counts the rest of the input cannot hold fail with the message of
     the line where reading stops, through of_string and through load;
     a vertex count no array can index, or one whose ids do not fit a
     packed cell's 32-bit half (2147483649 = 2^31 + 1), is an [Error]
     too. No count may let Out_of_memory or Invalid_argument
     "Array.make" escape. *)
  let expect text msg =
    let path = Filename.temp_file "ufp" ".inst" in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    let loaded = Io.load path in
    Sys.remove path;
    List.iter
      (function
        | Ok _ -> Alcotest.fail ("expected parse error: " ^ msg)
        | Error m -> Alcotest.(check string) "message" msg m)
      [ Io.of_string text; loaded ]
  in
  List.iter
    (fun k ->
      expect
        (Printf.sprintf "ufp 1\ndirected 1\nvertices 2\nedges %d\ne 0 1 1.0\nrequests 0\n" k)
        "bad edge line \"requests 0\"";
      expect
        (Printf.sprintf "ufp 1\ndirected 1\nvertices 2\nedges %d\ne 0 1 1.0\n" k)
        "unexpected end of input while reading edges";
      expect
        (Printf.sprintf "ufp 1\ndirected 1\nvertices 2\nedges 0\nrequests %d\nr 0 1 1 1\n" k)
        "unexpected end of input while reading requests";
      expect
        (Printf.sprintf "ufp 1\ndirected 1\nvertices 2\nedges 0\nrequests %d\nr 0 1 1 1\nx\n" k)
        "bad request line \"x\"")
    [ 2; 3; 10_000_000; Sys.max_array_length - 1; Sys.max_array_length; max_int ];
  List.iter
    (fun n ->
      expect
        (Printf.sprintf "ufp 1\ndirected 1\nvertices %d\nedges 0\nrequests 0\n" n)
        "Graph.of_edge_stream: vertex count too large")
    [ 2147483649; Sys.max_array_length - 1; Sys.max_array_length; max_int ];
  (* A rejected edge has one message, whether or not its count fits. *)
  List.iter
    (fun k ->
      expect
        (Printf.sprintf "ufp 1\ndirected 1\nvertices 2\nedges %d\ne 0 0 1.0\n" k)
        "Graph.of_edge_stream: self loop")
    [ 1; 2; 10_000_000; max_int ];
  (* No line bounds the vertex count: a large one with no edges loads,
     its row offsets allocated up front. *)
  let text = "ufp 1\ndirected 0\nvertices 1000000\nedges 0\nrequests 0\n" in
  let path = Filename.temp_file "ufp" ".inst" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let loaded = Io.load path in
  Sys.remove path;
  List.iter
    (function
      | Error m -> Alcotest.fail m
      | Ok inst ->
        Alcotest.(check int) "vertices" 1_000_000 (Graph.n_vertices (Instance.graph inst)))
    [ Io.of_string text; loaded ];
  (* A lying count allocates only for the lines actually there. *)
  let before = Gc.allocated_bytes () in
  expect_parse_error
    "ufp 1\ndirected 1\nvertices 2\nedges 10000000\ne 0 1 1.0\nrequests 10000000\n";
  expect_parse_error
    "ufp 1\ndirected 1\nvertices 2\nedges 0\nrequests 10000000\nr 0 1 1 1\n";
  Alcotest.(check bool) "no count-sized allocation" true
    (Gc.allocated_bytes () -. before < 1e6)

(* Regression: negative counts used to send the line-consuming readers
   off the end of the input (or into Array-size territory), surfacing
   as misleading errors; they must be rejected up front, by name. *)
let expect_parse_error_msg text expected =
  match Io.of_string text with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error m -> Alcotest.(check string) "message" expected m

let test_io_negative_counts () =
  expect_parse_error_msg
    "ufp 1\ndirected 1\nvertices -1\nedges 0\nrequests 0\n"
    "negative vertices count -1";
  expect_parse_error_msg
    "ufp 1\ndirected 1\nvertices 2\nedges -2\nrequests 0\n"
    "negative edges count -2";
  expect_parse_error_msg
    "ufp 1\ndirected 1\nvertices 2\nedges 1\ne 0 1 1.0\nrequests -5\n"
    "negative requests count -5";
  match Io.solution_of_string "ufp-solution 1\nallocations -3\n" with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error m -> Alcotest.(check string) "message" "negative allocations count -3" m

let test_io_file_round_trip () =
  let g = line_graph [| 2.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:0.25 ~value:1.5 |]
  in
  let path = Filename.temp_file "ufp" ".inst" in
  Io.save path inst;
  (match Io.load path with
  | Ok inst' ->
    check_float "demand preserved" 0.25 (Instance.request inst' 0).Request.demand
  | Error m -> Alcotest.fail m);
  Sys.remove path;
  match Io.load "/nonexistent/path.inst" with
  | Ok _ -> Alcotest.fail "expected IO error"
  | Error _ -> ()

(* --- Diagnostics --- *)

module Diagnostics = Ufp_instance.Diagnostics

let test_diagnostics_basic () =
  let g = line_graph [| 2.0; 4.0 |] in
  let inst =
    Instance.create g
      [|
        Request.make ~src:0 ~dst:2 ~demand:1.0 ~value:3.0;
        Request.make ~src:0 ~dst:1 ~demand:0.5 ~value:1.0;
      |]
  in
  let r = Diagnostics.analyze inst in
  Alcotest.(check int) "vertices" 3 r.Diagnostics.n_vertices;
  Alcotest.(check int) "edges" 2 r.Diagnostics.n_edges;
  Alcotest.(check int) "requests" 2 r.Diagnostics.n_requests;
  Alcotest.(check bool) "directed" true r.Diagnostics.directed;
  check_float "bound" 2.0 r.Diagnostics.bound;
  check_float "min cap" 2.0 r.Diagnostics.min_capacity;
  check_float "max cap" 4.0 r.Diagnostics.max_capacity;
  check_float "total demand" 1.5 r.Diagnostics.total_demand;
  check_float "total value" 4.0 r.Diagnostics.total_value;
  Alcotest.(check int) "routable" 2 r.Diagnostics.routable_requests;
  (* Both requests fit: throughput 1.5, contention 1. *)
  check_float "throughput" 1.5 r.Diagnostics.splittable_throughput;
  check_float "contention" 1.0 r.Diagnostics.contention

let test_diagnostics_contention () =
  (* Two unit requests over a single capacity-1 edge: throughput 1,
     contention 2. *)
  let g = line_graph [| 1.0 |] in
  let inst =
    Instance.create g
      [|
        Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0;
        Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0;
      |]
  in
  let r = Diagnostics.analyze inst in
  check_float "throughput capped" 1.0 r.Diagnostics.splittable_throughput;
  check_float "overloaded" 2.0 r.Diagnostics.contention

let test_diagnostics_unroutable () =
  let g = Graph.create ~directed:true ~n:3 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:2.0);
  let inst =
    Instance.create g
      [|
        Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0;
        Request.make ~src:1 ~dst:2 ~demand:1.0 ~value:9.0;
      |]
  in
  let r = Diagnostics.analyze inst in
  Alcotest.(check int) "one routable" 1 r.Diagnostics.routable_requests;
  check_float "throughput counts routable only" 1.0
    r.Diagnostics.splittable_throughput

let test_diagnostics_premise () =
  let g = line_graph [| 2.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:0.5 ~value:1.0 |]
  in
  (* ln 1 = 0: premise capacity 0 regardless of eps. *)
  check_float "single edge premise" 0.0 (Diagnostics.premise_capacity inst ~eps:0.3);
  let s = Format.asprintf "%a" Diagnostics.pp (Diagnostics.analyze inst) in
  Alcotest.(check bool) "pp renders" true (String.length s > 40)

let test_solution_io_round_trip () =
  let sol =
    [
      { Solution.request = 0; path = [ 3; 7 ] };
      { Solution.request = 2; path = [ 1 ] };
    ]
  in
  (match Io.solution_of_string (Io.solution_to_string sol) with
  | Ok sol' -> Alcotest.(check bool) "round trip" true (sol = sol')
  | Error m -> Alcotest.fail m);
  (match Io.solution_of_string (Io.solution_to_string []) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "expected empty"
  | Error m -> Alcotest.fail m);
  let expect_err text =
    match Io.solution_of_string text with
    | Ok _ -> Alcotest.fail "expected parse error"
    | Error _ -> ()
  in
  expect_err "";
  expect_err "nope";
  expect_err "ufp-solution 1\nallocations 2\na 0 1\n";
  expect_err "ufp-solution 1\nallocations 0\nextra\n";
  expect_err "ufp-solution 1\nallocations 1\na x 1\n"

let test_solution_io_file () =
  let sol = [ { Solution.request = 1; path = [ 0 ] } ] in
  let path = Filename.temp_file "ufp" ".sol" in
  Io.save_solution path sol;
  (match Io.load_solution path with
  | Ok sol' -> Alcotest.(check bool) "file round trip" true (sol = sol')
  | Error m -> Alcotest.fail m);
  Sys.remove path

(* --- Dot --- *)

module Dot = Ufp_instance.Dot

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_dot_instance () =
  let g = line_graph [| 2.5 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0 |]
  in
  let dot = Dot.instance inst in
  Alcotest.(check bool) "digraph for directed" true (contains dot "digraph");
  Alcotest.(check bool) "capacity label" true (contains dot "label=\"2.5\"");
  Alcotest.(check bool) "source ringed" true (contains dot "0 [peripheries=2]")

let test_dot_undirected () =
  let g = Gen.ring ~n:3 ~capacity:1.0 in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:2 ~demand:1.0 ~value:1.0 |]
  in
  let dot = Dot.instance inst in
  Alcotest.(check bool) "graph for undirected" true
    (contains dot "graph ufp {" && contains dot "--")

let test_dot_solution () =
  let g = line_graph [| 2.0; 2.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:2 ~demand:1.0 ~value:3.0 |]
  in
  let sol = [ { Solution.request = 0; path = [ 0; 1 ] } ] in
  let dot = Dot.solution inst sol in
  Alcotest.(check bool) "used edge coloured" true (contains dot "color=blue");
  Alcotest.(check bool) "load over capacity" true (contains dot "1/2");
  Alcotest.(check bool) "allocation listed" true
    (contains dot "allocated requests: 0")

let test_dot_deterministic () =
  let g = Gen.grid ~rows:2 ~cols:2 ~capacity:3.0 in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:3 ~demand:1.0 ~value:1.0 |]
  in
  Alcotest.(check string) "same output" (Dot.instance inst) (Dot.instance inst)

let test_dot_save () =
  let g = line_graph [| 1.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0 |]
  in
  let path = Filename.temp_file "ufp" ".dot" in
  Dot.save path (Dot.instance inst);
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "saved" true (String.length content > 20)

(* --- QCheck --- *)

let qcheck_io_round_trip =
  QCheck.Test.make ~name:"io round trip preserves instances" ~count:50
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.grid ~rows:3 ~cols:3 ~capacity:(Rng.float_in rng 1.0 9.0) in
      let reqs = Workloads.random_requests rng g ~count:4 () in
      let inst = Instance.create g reqs in
      match Io.of_string (Io.to_string inst) with
      | Error _ -> false
      | Ok inst' ->
        Instance.n_requests inst = Instance.n_requests inst'
        && Array.for_all2 Request.equal (Instance.requests inst)
             (Instance.requests inst'))

(* The round-trip law must survive cosmetic noise: comment lines and
   blank lines injected between any two lines of the serialised form
   are ignored by the parser, so the parsed instance is still equal —
   graph and requests — to the original. *)
let inject_noise rng text =
  let lines = String.split_on_char '\n' text in
  let noisy =
    List.concat_map
      (fun l ->
        let noise =
          match Rng.int rng 4 with
          | 0 -> [ "# injected comment" ]
          | 1 -> [ "" ]
          | 2 -> [ "  "; "# more # noise" ]
          | _ -> []
        in
        noise @ [ l ])
      lines
  in
  String.concat "\n" noisy

let qcheck_io_round_trip_injected =
  QCheck.Test.make ~name:"io round trip survives comment/blank injection"
    ~count:100 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 500) in
      let g =
        Gen.erdos_renyi rng ~n:6 ~edge_prob:0.5
          ~directed:(Rng.int rng 2 = 0)
          ~capacity_lo:1.0 ~capacity_hi:5.0
      in
      if Graph.n_edges g = 0 then true
      else begin
        let inst =
          Instance.create g (Workloads.random_requests rng g ~count:3 ())
        in
        match Io.of_string (inject_noise rng (Io.to_string inst)) with
        | Error _ -> false
        | Ok inst' ->
          let g' = Instance.graph inst' in
          Graph.n_vertices g = Graph.n_vertices g'
          && Graph.n_edges g = Graph.n_edges g'
          && Graph.is_directed g = Graph.is_directed g'
          && List.for_all
               (fun e ->
                 let e' = Graph.edge g' e in
                 let e = Graph.edge g e in
                 e.Graph.u = e'.Graph.u && e.Graph.v = e'.Graph.v
                 && e.Graph.capacity = e'.Graph.capacity)
               (List.init (Graph.n_edges g) Fun.id)
          && Array.for_all2 Request.equal (Instance.requests inst)
               (Instance.requests inst')
      end)

(* Failure injection: no input, however mangled, may crash the
   parsers — they must return Error (or successfully parse a still-valid
   mutation), never raise. *)
let mutate rng text =
  let b = Bytes.of_string text in
  let mutations = 1 + Rng.int rng 8 in
  for _ = 1 to mutations do
    if Bytes.length b > 0 then begin
      let pos = Rng.int rng (Bytes.length b) in
      let c =
        match Rng.int rng 4 with
        | 0 -> Char.chr (Rng.int rng 256)
        | 1 -> ' '
        | 2 -> '\n'
        | _ -> Char.chr (Char.code '0' + Rng.int rng 10)
      in
      Bytes.set b pos c
    end
  done;
  Bytes.to_string b

let qcheck_instance_parser_never_crashes =
  QCheck.Test.make ~name:"mutated instance files never crash the parser"
    ~count:300 QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.grid ~rows:3 ~cols:3 ~capacity:4.0 in
      let inst =
        Instance.create g (Workloads.random_requests rng g ~count:3 ())
      in
      let mangled = mutate rng (Io.to_string inst) in
      match Io.of_string mangled with Ok _ | Error _ -> true)

let qcheck_solution_parser_never_crashes =
  QCheck.Test.make ~name:"mutated solution files never crash the parser"
    ~count:300 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1000) in
      let sol =
        [
          { Solution.request = 0; path = [ 1; 2; 3 ] };
          { Solution.request = 4; path = [ 0 ] };
        ]
      in
      let mangled = mutate rng (Io.solution_to_string sol) in
      match Io.solution_of_string mangled with Ok _ | Error _ -> true)

(* The streaming reader against the list-based one it replaced
   (test/io_oracle.ml): on every text, through [of_string] and through
   [load] on a file, both succeed with bitwise equal results or both
   fail with the same message (up to the graph constructor's name). *)
let readers_disagree same ~oracle:(oracle_read, oracle_load) ~scanner:(read, load) text =
  let path = Filename.temp_file "ufp-reader" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let by_load = Io_oracle.disagreement same ~oracle:(oracle_load path) ~scanner:(load path) in
  Sys.remove path;
  match Io_oracle.disagreement same ~oracle:(oracle_read text) ~scanner:(read text) with
  | Some d -> Some ("of_string: " ^ d)
  | None -> Option.map (( ^ ) "load: ") by_load

let instance_readers_disagree =
  readers_disagree Io_oracle.same_instance
    ~oracle:(Io_oracle.of_string, Io_oracle.load) ~scanner:(Io.of_string, Io.load)

let solution_readers_disagree =
  readers_disagree ( = )
    ~oracle:(Io_oracle.solution_of_string, Io_oracle.load_solution)
    ~scanner:(Io.solution_of_string, Io.load_solution)

let readers_agree disagree text =
  match disagree text with None -> true | Some d -> QCheck.Test.fail_report d

(* Line-level noise on top of [inject_noise]: CRLF line ends, tabs,
   runs of spaces, leading and trailing blanks — all of which the line
   rules trim or skip. With [~tabs], a rare tab inside a line glues two
   words together, which both readers must reject alike. *)
let roughen rng ~tabs text =
  let respace sep l = String.concat sep (String.split_on_char ' ' l) in
  String.split_on_char '\n' (inject_noise rng text)
  |> List.map (fun l ->
         match Rng.int rng 40 with
         | 0 | 1 | 2 -> l ^ "\r"
         | 3 -> "\t " ^ l
         | 4 -> l ^ " \t "
         | 5 -> respace "   " l
         | 6 when tabs -> respace "\t" l
         | _ -> l)
  |> String.concat "\n"

(* Lines the generated texts rarely produce: several bad tokens on one
   line (the reader must report the one the oracle reports), integer
   syntax beyond plain decimals, and edges the graph constructor
   rejects. *)
let test_io_reader_crafted () =
  let head = "ufp 1\ndirected 0\nvertices 3\n" in
  let edges body = head ^ "edges 1\n" ^ body ^ "\nrequests 0\n" in
  let request body = head ^ "edges 1\ne 0 1 2\nrequests 1\n" ^ body ^ "\n" in
  List.iter
    (fun text ->
      Option.iter (Alcotest.failf "%S: %s" text) (instance_readers_disagree text))
    [
      edges "e x 1 y"; edges "e 0 x y"; edges "e x y 1"; edges "e 0 1 1e999";
      edges "e 0 3 1"; edges "e 1 1 1"; edges "e 0 1 -2"; edges "e 0 1 nan";
      edges "e 0x1 +2 0x1p3"; edges "e 0_0 1 1_0.5"; edges "e -0 1 1";
      edges "e 99999999999999999999 1 1"; edges "e 000000000000000000001 2 1";
      edges "e - 1 1"; edges "e 0 1"; edges "e 0 1 1 1"; edges "E 0 1 1";
      request "r x 1 y 1"; request "r 0 x 1 y"; request "r 0 1 x y";
      request "r 0 0 1 1"; request "r 0 1 0 1"; request "r 0 5 1 1"; request "r 0 1 1";
      head ^ "edges 0\nrequests 0\n#\n  # x\n\r\n\x0c\n";
      "\xef\xbb\xbfufp 1\n"; "ufp  1 \r\n"; "ufp 01\n"; "";
      head ^ "edges 1\ne 0 1 2\nrequests 0\ntrailing words here\n";
      head ^ "edges 0\nrequests\n"; head ^ "edges 0\nrequests 1 2\n";
    ]

let reader_text rng text =
  match Rng.int rng 4 with
  | 0 -> text
  | 1 -> roughen rng ~tabs:false text
  | 2 -> roughen rng ~tabs:true text
  | _ -> mutate rng text

(* Grids, Erdős–Rényi graphs and scale-8 RMAT graphs (4,096 edge
   lines, so lines cross the scanner's buffer refills). *)
let qcheck_reader_matches_oracle =
  QCheck.Test.make ~name:"io reader agrees with the list-based oracle" ~count:150
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 3000) in
      let g =
        match Rng.int rng 3 with
        | 0 ->
          Gen.grid ~rows:(2 + Rng.int rng 3) ~cols:(2 + Rng.int rng 3)
            ~capacity:(Rng.float_in rng 1.0 9.0)
        | 1 ->
          Gen.erdos_renyi rng ~n:(2 + Rng.int rng 6) ~edge_prob:0.5
            ~directed:(Rng.int rng 2 = 0) ~capacity_lo:1.0 ~capacity_hi:5.0
        | _ ->
          Gen.rmat rng ~scale:8 ~edge_factor:16 ~directed:(Rng.int rng 2 = 0)
            ~capacity_lo:1.0 ~capacity_hi:100.0 ()
      in
      let requests =
        if Graph.n_edges g = 0 then [||]
        else Workloads.hub_requests rng g ~count:(Rng.int rng 6) ()
      in
      readers_agree instance_readers_disagree
        (reader_text rng (Io.to_string (Instance.create g requests))))

(* Paths of up to 2,000 edge ids make lines longer than the scanner's
   buffer. *)
let qcheck_solution_reader_matches_oracle =
  QCheck.Test.make ~name:"io solution reader agrees with the list-based oracle"
    ~count:150 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 4000) in
      let path () =
        List.init
          (if Rng.int rng 5 = 0 then Rng.int rng 2000 else Rng.int rng 6)
          (fun _ -> Rng.int rng 100_000)
      in
      let sol =
        List.init (Rng.int rng 5) (fun _ ->
            { Solution.request = Rng.int rng 50; path = path () })
      in
      readers_agree solution_readers_disagree
        (reader_text rng (Io.solution_to_string sol)))

let qcheck_normalize_preserves_feasibility =
  QCheck.Test.make ~name:"normalisation preserves solution feasibility" ~count:50
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.grid ~rows:3 ~cols:3 ~capacity:8.0 in
      let reqs =
        Workloads.random_requests rng g ~count:5 ~demand:(1.0, 4.0) ()
      in
      let inst = Instance.create g reqs in
      let norm = Instance.normalize inst in
      (* Any single-request shortest-hop allocation feasible in one is
         feasible in the other. *)
      let r = Instance.request inst 0 in
      match
        Dijkstra.shortest_path g ~weight:(fun _ -> 1.0) ~src:r.Request.src
          ~dst:r.Request.dst
      with
      | None -> true
      | Some (_, path) ->
        let sol = [ { Solution.request = 0; path } ] in
        Solution.is_feasible inst sol = Solution.is_feasible norm sol)

let () =
  Alcotest.run "instance"
    [
      ( "request",
        [
          Alcotest.test_case "make" `Quick test_request_make;
          Alcotest.test_case "validation" `Quick test_request_validation;
          Alcotest.test_case "with_type" `Quick test_request_with_type;
        ] );
      ( "instance",
        [
          Alcotest.test_case "create" `Quick test_instance_create;
          Alcotest.test_case "array copied" `Quick test_instance_request_array_copied;
          Alcotest.test_case "with_request" `Quick test_instance_with_request;
          Alcotest.test_case "bound and normalize" `Quick test_instance_bound_normalize;
          Alcotest.test_case "normalize identity" `Quick test_instance_normalize_identity;
          Alcotest.test_case "meets_bound" `Quick test_meets_bound;
        ] );
      ( "solution",
        [
          Alcotest.test_case "value and loads" `Quick test_solution_value_loads;
          Alcotest.test_case "feasibility" `Quick test_solution_feasible;
          Alcotest.test_case "check errors" `Quick test_solution_check_errors;
          Alcotest.test_case "repetitions" `Quick test_solution_repetitions;
          Alcotest.test_case "pp" `Quick test_solution_pp;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "random requests" `Quick test_random_requests;
          Alcotest.test_case "deterministic" `Quick test_random_requests_deterministic;
          Alcotest.test_case "value per hop" `Quick test_value_per_hop;
          Alcotest.test_case "staircase requests" `Quick test_staircase_requests;
          Alcotest.test_case "gadget7 requests" `Quick test_gadget7_requests;
          Alcotest.test_case "all pairs" `Quick test_all_pairs_unit;
          Alcotest.test_case "hub requests" `Quick test_hub_requests;
          Alcotest.test_case "hub requests validation" `Quick
            test_hub_requests_validation;
        ] );
      ( "io",
        [
          Alcotest.test_case "round trip" `Quick test_io_round_trip;
          Alcotest.test_case "comments and blanks" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "negative counts" `Quick test_io_negative_counts;
          Alcotest.test_case "reader crafted lines" `Quick test_io_reader_crafted;
          Alcotest.test_case "file round trip" `Quick test_io_file_round_trip;
          Alcotest.test_case "solution round trip" `Quick test_solution_io_round_trip;
          Alcotest.test_case "solution file" `Quick test_solution_io_file;
        ] );
      ( "dot",
        [
          Alcotest.test_case "instance" `Quick test_dot_instance;
          Alcotest.test_case "undirected" `Quick test_dot_undirected;
          Alcotest.test_case "solution" `Quick test_dot_solution;
          Alcotest.test_case "deterministic" `Quick test_dot_deterministic;
          Alcotest.test_case "save" `Quick test_dot_save;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "basic" `Quick test_diagnostics_basic;
          Alcotest.test_case "contention" `Quick test_diagnostics_contention;
          Alcotest.test_case "unroutable" `Quick test_diagnostics_unroutable;
          Alcotest.test_case "premise and pp" `Quick test_diagnostics_premise;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_io_round_trip;
            qcheck_io_round_trip_injected;
            qcheck_normalize_preserves_feasibility;
            qcheck_instance_parser_never_crashes;
            qcheck_solution_parser_never_crashes;
            qcheck_reader_matches_oracle;
            qcheck_solution_reader_matches_oracle;
          ] );
    ]
