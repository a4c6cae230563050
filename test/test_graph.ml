(* Tests for Ufp_graph: graph, packed CSR cells, dijkstra and its
   property oracle, path, enumerate, generators. *)

module Graph = Ufp_graph.Graph
module Dijkstra = Ufp_graph.Dijkstra
module Weight_snapshot = Ufp_graph.Weight_snapshot
module Path = Ufp_graph.Path
module Enumerate = Ufp_graph.Enumerate
module Gen = Ufp_graph.Generators
module Rng = Ufp_prelude.Rng
module Float_tol = Ufp_prelude.Float_tol

let check_float = Alcotest.(check (float Float_tol.check_eps))

(* A small directed diamond: 0 -> 1 -> 3, 0 -> 2 -> 3, plus 0 -> 3. *)
let diamond () =
  let g = Graph.create ~directed:true ~n:4 in
  let e01 = Graph.add_edge g ~u:0 ~v:1 ~capacity:2.0 in
  let e13 = Graph.add_edge g ~u:1 ~v:3 ~capacity:3.0 in
  let e02 = Graph.add_edge g ~u:0 ~v:2 ~capacity:4.0 in
  let e23 = Graph.add_edge g ~u:2 ~v:3 ~capacity:5.0 in
  let e03 = Graph.add_edge g ~u:0 ~v:3 ~capacity:1.0 in
  (g, e01, e13, e02, e23, e03)

(* --- Graph --- *)

let test_create_negative () =
  Alcotest.check_raises "negative n"
    (Invalid_argument "Graph.create: negative vertex count") (fun () ->
      ignore (Graph.create ~directed:true ~n:(-1)))

let test_add_edge_validation () =
  let g = Graph.create ~directed:true ~n:3 in
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Graph.add_edge: endpoint out of range") (fun () ->
      ignore (Graph.add_edge g ~u:0 ~v:3 ~capacity:1.0));
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self loop")
    (fun () -> ignore (Graph.add_edge g ~u:1 ~v:1 ~capacity:1.0));
  Alcotest.check_raises "capacity"
    (Invalid_argument "Graph.add_edge: capacity must be positive and finite")
    (fun () -> ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:0.0));
  Alcotest.check_raises "infinite capacity"
    (Invalid_argument "Graph.add_edge: capacity must be positive and finite")
    (fun () -> ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:infinity));
  Alcotest.check_raises "nan capacity"
    (Invalid_argument "Graph.add_edge: capacity must be positive and finite")
    (fun () -> ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:nan))

let test_basic_accessors () =
  let g, e01, _, _, _, e03 = diamond () in
  Alcotest.(check bool) "directed" true (Graph.is_directed g);
  Alcotest.(check int) "n" 4 (Graph.n_vertices g);
  Alcotest.(check int) "m" 5 (Graph.n_edges g);
  let e = Graph.edge g e01 in
  Alcotest.(check int) "edge u" 0 e.Graph.u;
  Alcotest.(check int) "edge v" 1 e.Graph.v;
  check_float "edge capacity" 2.0 e.Graph.capacity;
  check_float "capacity accessor" 1.0 (Graph.capacity g e03);
  check_float "min capacity" 1.0 (Graph.min_capacity g);
  Alcotest.check_raises "bad edge id" (Invalid_argument "Graph.edge: id out of range")
    (fun () -> ignore (Graph.edge g 99))

let test_min_capacity_empty () =
  let g = Graph.create ~directed:true ~n:2 in
  Alcotest.check_raises "no edges" (Invalid_argument "Graph.min_capacity: no edges")
    (fun () -> ignore (Graph.min_capacity g))

let test_out_edges_directed () =
  let g, e01, _, e02, _, e03 = diamond () in
  let out0 = Graph.out_edges g 0 |> List.map fst |> List.sort compare in
  Alcotest.(check (list int)) "out of 0" (List.sort compare [ e01; e02; e03 ]) out0;
  Alcotest.(check (list int)) "sink has no out edges" []
    (Graph.out_edges g 3 |> List.map fst)

let test_out_edges_undirected () =
  let g = Graph.create ~directed:false ~n:3 in
  let e01 = Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0 in
  let e12 = Graph.add_edge g ~u:1 ~v:2 ~capacity:1.0 in
  let out1 = Graph.out_edges g 1 |> List.sort compare in
  Alcotest.(check (list (pair int int))) "both incident edges"
    (List.sort compare [ (e01, 0); (e12, 2) ])
    out1

(* The neighbor-order determinism contract (graph.mli): out_edges and
   the CSR rows present incident edges in insertion order. Dijkstra
   parent ties on equal-distance relaxations depend on this order, so
   it is pinned here, not merely sorted-and-compared. *)
let test_out_edges_insertion_order () =
  let g, e01, _, e02, _, e03 = diamond () in
  Alcotest.(check (list (pair int int)))
    "out of 0, pinned insertion order"
    [ (e01, 1); (e02, 2); (e03, 3) ]
    (Graph.out_edges g 0)

(* The (edge id, neighbor) halves of every packed cell, in slot
   order. *)
let cell_halves c =
  let cells = c.Graph.Csr.cells in
  let slots = Graph.Csr.Cells.length cells in
  (Array.init slots (Graph.Csr.Cells.snd cells), Array.init slots (Graph.Csr.Cells.fst cells))

let test_csr_pinned_rows () =
  let g, e01, e13, e02, e23, e03 = diamond () in
  let c = Graph.csr g in
  Alcotest.(check (array int)) "row_start" [| 0; 3; 4; 5; 5 |]
    c.Graph.Csr.row_start;
  let ids, neighbors = cell_halves c in
  Alcotest.(check (array int)) "edge ids, insertion order per row"
    [| e01; e02; e03; e13; e23 |] ids;
  Alcotest.(check (array int)) "neighbors" [| 1; 2; 3; 3; 3 |] neighbors

let test_csr_undirected_both_rows () =
  let g = Graph.create ~directed:false ~n:3 in
  let e01 = Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0 in
  let e12 = Graph.add_edge g ~u:1 ~v:2 ~capacity:1.0 in
  let c = Graph.csr g in
  Alcotest.(check (array int)) "row_start" [| 0; 1; 3; 4 |] c.Graph.Csr.row_start;
  (* Vertex 1 sees both incident edges, in insertion order, each with
     the opposite endpoint as neighbor. *)
  let ids, neighbors = cell_halves c in
  Alcotest.(check (array int)) "edge ids" [| e01; e01; e12; e12 |] ids;
  Alcotest.(check (array int)) "neighbors" [| 1; 0; 2; 1 |] neighbors

let test_csr_cached_and_invalidated () =
  let count () =
    match
      List.assoc_opt "graph.csr_builds" (Ufp_obs.Metrics.snapshot ()).Ufp_obs.Metrics.counters
    with
    | Some n -> n
    | None -> 0
  in
  let g = Graph.create ~directed:true ~n:3 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0);
  let before = count () in
  let c1 = Graph.csr g in
  let c2 = Graph.csr g in
  Alcotest.(check bool) "cached: same physical view" true (c1 == c2);
  Alcotest.(check int) "one build" (before + 1) (count ());
  ignore (Graph.add_edge g ~u:1 ~v:2 ~capacity:1.0);
  let c3 = Graph.csr g in
  Alcotest.(check int) "add_edge invalidates" (before + 2) (count ());
  Alcotest.(check (array int)) "rebuilt row_start" [| 0; 1; 2; 2 |]
    c3.Graph.Csr.row_start

let test_fold_edges_order () =
  let g, _, _, _, _, _ = diamond () in
  let ids = Graph.fold_edges (fun e acc -> e.Graph.id :: acc) g [] |> List.rev in
  Alcotest.(check (list int)) "increasing ids" [ 0; 1; 2; 3; 4 ] ids

let test_other_endpoint () =
  let g, e01, _, _, _, _ = diamond () in
  Alcotest.(check int) "other of 0" 1 (Graph.other_endpoint g e01 0);
  Alcotest.(check int) "other of 1" 0 (Graph.other_endpoint g e01 1);
  Alcotest.check_raises "not an endpoint"
    (Invalid_argument "Graph.other_endpoint: vertex not an endpoint") (fun () ->
      ignore (Graph.other_endpoint g e01 2))

let test_parallel_edges () =
  let g = Graph.create ~directed:true ~n:2 in
  let a = Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0 in
  let b = Graph.add_edge g ~u:0 ~v:1 ~capacity:2.0 in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "two edges" 2 (Graph.n_edges g)

let test_pp_smoke () =
  let g, _, _, _, _, _ = diamond () in
  let s = Format.asprintf "%a" Graph.pp g in
  Alcotest.(check bool) "renders" true (String.length s > 10)

(* --- Dijkstra --- *)

let test_dijkstra_diamond () =
  let g, e01, e13, _, _, e03 = diamond () in
  let w = Array.make 5 10.0 in
  w.(e01) <- 1.0;
  w.(e13) <- 1.0;
  w.(e03) <- 5.0;
  match Dijkstra.shortest_path g ~weight:(fun e -> w.(e)) ~src:0 ~dst:3 with
  | Some (len, path) ->
    check_float "length" 2.0 len;
    Alcotest.(check (list int)) "path edges" [ e01; e13 ] path
  | None -> Alcotest.fail "expected a path"

let test_dijkstra_direct_when_cheap () =
  let g, _, _, _, _, e03 = diamond () in
  let w = Array.make 5 10.0 in
  w.(e03) <- 0.5;
  match Dijkstra.shortest_path g ~weight:(fun e -> w.(e)) ~src:0 ~dst:3 with
  | Some (len, path) ->
    check_float "length" 0.5 len;
    Alcotest.(check (list int)) "direct edge" [ e03 ] path
  | None -> Alcotest.fail "expected a path"

let test_dijkstra_unreachable () =
  let g = Graph.create ~directed:true ~n:3 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0);
  Alcotest.(check bool) "no path to 2" true
    (Dijkstra.shortest_path g ~weight:(fun _ -> 1.0) ~src:0 ~dst:2 = None)

let test_dijkstra_directed_respects_orientation () =
  let g = Graph.create ~directed:true ~n:2 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0);
  Alcotest.(check bool) "backwards unreachable" true
    (Dijkstra.shortest_path g ~weight:(fun _ -> 1.0) ~src:1 ~dst:0 = None)

(* Validation now happens at Weight_snapshot construction — before any
   relaxation — and the message names the offending edge id. *)
let test_dijkstra_negative_raises () =
  let g = Graph.create ~directed:true ~n:2 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Weight_snapshot: negative weight on edge 0") (fun () ->
      ignore (Dijkstra.shortest_tree g ~weight:(fun _ -> -1.0) ~src:0))

let test_dijkstra_nan_raises () =
  (* The NaN sits on edge 2, which is not even reachable from the
     source: snapshot-time validation still catches it, with the edge
     id in the message. *)
  let g = Graph.create ~directed:true ~n:4 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0);
  ignore (Graph.add_edge g ~u:1 ~v:2 ~capacity:1.0);
  ignore (Graph.add_edge g ~u:3 ~v:2 ~capacity:1.0);
  Alcotest.check_raises "nan weight"
    (Invalid_argument "Weight_snapshot: NaN weight on edge 2") (fun () ->
      ignore
        (Dijkstra.shortest_tree g
           ~weight:(fun e -> if e = 2 then nan else 1.0)
           ~src:0))

let test_snapshot_build_and_get () =
  let g = Graph.create ~directed:true ~n:3 in
  let e01 = Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0 in
  let e12 = Graph.add_edge g ~u:1 ~v:2 ~capacity:1.0 in
  let w = Array.make 2 0.0 in
  w.(e01) <- 2.5;
  (* infinity is a legal weight: the residual filters price edges out
     with it. *)
  w.(e12) <- infinity;
  let s = Weight_snapshot.build g ~weight:(fun e -> w.(e)) in
  Alcotest.(check int) "length" 2 (Weight_snapshot.length s);
  check_float "edge 0" 2.5 (Weight_snapshot.get s e01);
  Alcotest.(check bool) "edge 1 infinite" true
    (Float.equal (Weight_snapshot.get s e12) infinity);
  (* The snapshot is a frozen copy: later weight changes do not leak. *)
  w.(e01) <- 9.0;
  check_float "frozen" 2.5 (Weight_snapshot.get s e01)

let test_dijkstra_src_eq_dst () =
  (* Self-loop edges cannot exist (Graph.add_edge rejects them), so the
     src = dst case must come out as the empty path, not a cycle. *)
  let g, _, _, _, _, _ = diamond () in
  (match Dijkstra.shortest_path g ~weight:(fun _ -> 1.0) ~src:2 ~dst:2 with
  | Some (len, path) ->
    check_float "zero length" 0.0 len;
    Alcotest.(check (list int)) "empty path" [] path
  | None -> Alcotest.fail "src = dst must be reachable");
  let tree = Dijkstra.shortest_tree g ~weight:(fun _ -> 1.0) ~src:2 in
  Alcotest.(check (option (list int))) "path_of_tree src=dst" (Some [])
    (Dijkstra.path_of_tree g tree ~src:2 ~dst:2)

let test_dijkstra_path_of_tree_disconnected () =
  let g = Graph.create ~directed:true ~n:4 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0);
  let tree = Dijkstra.shortest_tree g ~weight:(fun _ -> 1.0) ~src:0 in
  Alcotest.(check (option (list int))) "disconnected pair" None
    (Dijkstra.path_of_tree g tree ~src:0 ~dst:3);
  Alcotest.(check bool) "shortest_path agrees" true
    (Dijkstra.shortest_path g ~weight:(fun _ -> 1.0) ~src:0 ~dst:3 = None);
  check_float "infinite distance" infinity tree.Dijkstra.dist.(3)

let test_dijkstra_tie_break_deterministic () =
  (* 0 -> 1 -> 3 and 0 -> 2 -> 3 tie at length 2; the (dist, vertex id)
     rule settles vertex 1 before vertex 2, so the parent of 3 is fixed
     as e13. The Selector's per-request cache check leans on this
     being a pure function of the weights. *)
  let g, e01, e13, e02, e23, e03 = diamond () in
  let w = Array.make 5 1.0 in
  w.(e03) <- 10.0;
  (match Dijkstra.shortest_path g ~weight:(fun e -> w.(e)) ~src:0 ~dst:3 with
  | Some (len, path) ->
    check_float "tied length" 2.0 len;
    Alcotest.(check (list int)) "lower-id branch wins" [ e01; e13 ] path
  | None -> Alcotest.fail "expected a path");
  ignore (e02, e23)

let test_dijkstra_tree_distances () =
  let g = Gen.grid ~rows:3 ~cols:3 ~capacity:1.0 in
  let tree = Dijkstra.shortest_tree g ~weight:(fun _ -> 1.0) ~src:0 in
  for r = 0 to 2 do
    for c = 0 to 2 do
      check_float
        (Printf.sprintf "dist to (%d,%d)" r c)
        (float_of_int (r + c))
        tree.Dijkstra.dist.((r * 3) + c)
    done
  done

let test_dijkstra_undirected_both_ways () =
  let g = Gen.ring ~n:5 ~capacity:1.0 in
  let tree = Dijkstra.shortest_tree g ~weight:(fun _ -> 1.0) ~src:0 in
  check_float "dist to 2" 2.0 tree.Dijkstra.dist.(2);
  check_float "dist to 4 wraps" 1.0 tree.Dijkstra.dist.(4)

let test_reachable () =
  let g = Graph.create ~directed:true ~n:4 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0);
  ignore (Graph.add_edge g ~u:1 ~v:2 ~capacity:1.0);
  Alcotest.(check bool) "0 reaches 2" true (Dijkstra.reachable g ~src:0 ~dst:2);
  Alcotest.(check bool) "0 reaches 0" true (Dijkstra.reachable g ~src:0 ~dst:0);
  Alcotest.(check bool) "2 does not reach 0" false (Dijkstra.reachable g ~src:2 ~dst:0);
  Alcotest.(check bool) "3 isolated" false (Dijkstra.reachable g ~src:0 ~dst:3)

(* --- Path --- *)

let test_path_vertices () =
  let g, e01, e13, _, _, _ = diamond () in
  Alcotest.(check (list int)) "vertex walk" [ 0; 1; 3 ]
    (Path.vertices g ~src:0 [ e01; e13 ]);
  Alcotest.(check (list int)) "empty path" [ 0 ] (Path.vertices g ~src:0 [])

let test_path_vertices_orientation () =
  let g, e01, _, _, _, _ = diamond () in
  Alcotest.check_raises "against orientation"
    (Invalid_argument "Path.vertices: directed edge traversed against orientation")
    (fun () -> ignore (Path.vertices g ~src:1 [ e01 ]))

let test_path_vertices_undirected () =
  let g = Gen.ring ~n:4 ~capacity:1.0 in
  Alcotest.(check (list int)) "reverse traversal ok" [ 1; 0 ]
    (Path.vertices g ~src:1 [ 0 ])

let test_path_is_valid () =
  let g, e01, e13, e02, e23, e03 = diamond () in
  Alcotest.(check bool) "valid" true (Path.is_valid g ~src:0 ~dst:3 [ e01; e13 ]);
  Alcotest.(check bool) "wrong dst" false (Path.is_valid g ~src:0 ~dst:2 [ e01; e13 ]);
  Alcotest.(check bool) "disconnected edges" false
    (Path.is_valid g ~src:0 ~dst:3 [ e01; e23 ]);
  Alcotest.(check bool) "empty needs src=dst" true (Path.is_valid g ~src:1 ~dst:1 []);
  Alcotest.(check bool) "empty src<>dst" false (Path.is_valid g ~src:0 ~dst:3 []);
  ignore (e02, e03)

let test_path_simple_only () =
  let g = Gen.ring ~n:4 ~capacity:1.0 in
  Alcotest.(check bool) "cycle not simple" false
    (Path.is_valid g ~src:0 ~dst:0 [ 0; 1; 2; 3 ])

let test_path_length_bottleneck () =
  let g, e01, e13, _, _, _ = diamond () in
  check_float "length" 5.0
    (Path.length ~weight:(fun e -> if e = e01 then 2.0 else 3.0) [ e01; e13 ]);
  check_float "bottleneck" 2.0 (Path.bottleneck g [ e01; e13 ]);
  check_float "empty bottleneck" infinity (Path.bottleneck g []);
  Alcotest.(check bool) "mem edge" true (Path.mem_edge e01 [ e01; e13 ]);
  Alcotest.(check bool) "not mem" false (Path.mem_edge 99 [ e01; e13 ])

let test_path_pp () =
  let g, e01, e13, _, _, _ = diamond () in
  let s = Format.asprintf "%a" (Path.pp g ~src:0) [ e01; e13 ] in
  Alcotest.(check string) "render" "0 -> 1 -> 3" s

(* --- Enumerate --- *)

let test_enumerate_diamond () =
  let g, _, _, _, _, _ = diamond () in
  let paths = Enumerate.simple_paths g ~src:0 ~dst:3 in
  Alcotest.(check int) "three paths" 3 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check bool) "each valid" true (Path.is_valid g ~src:0 ~dst:3 p))
    paths;
  Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare paths))

let test_enumerate_src_eq_dst () =
  let g, _, _, _, _, _ = diamond () in
  Alcotest.(check (list (list int))) "single empty path" [ [] ]
    (Enumerate.simple_paths g ~src:2 ~dst:2)

let test_enumerate_max_paths () =
  let g, _, _, _, _, _ = diamond () in
  Alcotest.(check int) "capped" 2
    (List.length (Enumerate.simple_paths ~max_paths:2 g ~src:0 ~dst:3))

let test_enumerate_gadget_count () =
  let g = Gen.gadget7 ~capacity:1.0 in
  let open Gen.Gadget7 in
  (* v1 -> v6: via v7 directly, via v2-v3-v7, via v7-v4-v5, and the long
     way around both side chains. *)
  Alcotest.(check int) "gadget v1->v6 paths" 4
    (Enumerate.count_simple_paths g ~src:v1 ~dst:v6)

let test_enumerate_none () =
  let g = Graph.create ~directed:true ~n:2 in
  Alcotest.(check (list (list int))) "no path" []
    (Enumerate.simple_paths g ~src:0 ~dst:1)

(* --- Generators --- *)

let test_staircase_structure () =
  let l = 6 in
  let sc = Gen.staircase ~levels:l ~capacity:4.0 in
  let g = sc.Gen.graph in
  Alcotest.(check int) "vertices" ((2 * l) + 1) (Graph.n_vertices g);
  Alcotest.(check int) "edges" (l + (l * (l + 1) / 2)) (Graph.n_edges g);
  Alcotest.(check bool) "directed" true (Graph.is_directed g);
  check_float "uniform capacity" 4.0 (Graph.min_capacity g);
  Array.iteri
    (fun i si ->
      Alcotest.(check bool) "source reaches sink" true
        (Dijkstra.reachable g ~src:si ~dst:sc.Gen.sink);
      Alcotest.(check int)
        (Printf.sprintf "out-degree of s_%d" (i + 1))
        (l - i)
        (List.length (Graph.out_edges g si)))
    sc.Gen.sources;
  Array.iter
    (fun vj ->
      Alcotest.(check (list int)) "mid connects to sink" [ sc.Gen.sink ]
        (Graph.out_edges g vj |> List.map snd))
    sc.Gen.mids

let test_staircase_invalid () =
  Alcotest.check_raises "levels 0"
    (Invalid_argument "Generators.staircase: levels <= 0") (fun () ->
      ignore (Gen.staircase ~levels:0 ~capacity:1.0))

let test_stretched_staircase () =
  let l = 3 in
  let sc = Gen.staircase_stretched ~levels:l ~capacity:2.0 in
  let g = sc.Gen.s_graph in
  (* The (s_i, v_j) connection is a path of i*l + 1 - j edges. *)
  for i = 1 to l do
    let tree =
      Dijkstra.shortest_tree g ~weight:(fun _ -> 1.0)
        ~src:sc.Gen.s_sources.(i - 1)
    in
    for j = i to l do
      check_float
        (Printf.sprintf "hops s_%d -> v_%d" i j)
        (float_of_int ((i * l) + 1 - j))
        tree.Dijkstra.dist.(sc.Gen.s_mids.(j - 1))
    done
  done

let test_gadget7_structure () =
  let g = Gen.gadget7 ~capacity:3.0 in
  let open Gen.Gadget7 in
  Alcotest.(check int) "vertices" 7 (Graph.n_vertices g);
  Alcotest.(check int) "edges" 8 (Graph.n_edges g);
  Alcotest.(check bool) "undirected" false (Graph.is_directed g);
  Alcotest.(check int) "hub degree" 4 (List.length (Graph.out_edges g v7));
  (* Every v1 -> v6 simple path uses edge v1-v7 or v3-v7 — the
     bottleneck of Theorem 3.12. *)
  let uses_bottleneck p =
    List.exists
      (fun eid ->
        let e = Graph.edge g eid in
        let pair = (min e.Graph.u e.Graph.v, max e.Graph.u e.Graph.v) in
        pair = (v1, v7) || pair = (v3, v7))
      p
  in
  List.iter
    (fun p -> Alcotest.(check bool) "bottleneck edge used" true (uses_bottleneck p))
    (Enumerate.simple_paths g ~src:v1 ~dst:v6)

let test_grid_structure () =
  let g = Gen.grid ~rows:3 ~cols:4 ~capacity:2.0 in
  Alcotest.(check int) "vertices" 12 (Graph.n_vertices g);
  Alcotest.(check int) "edges" 17 (Graph.n_edges g);
  Alcotest.(check bool) "connected" true (Dijkstra.reachable g ~src:0 ~dst:11)

let test_layered_structure () =
  let rng = Rng.create 5 in
  let g =
    Gen.layered rng ~layers:4 ~width:3 ~edge_prob:0.3 ~capacity_lo:1.0
      ~capacity_hi:2.0
  in
  Alcotest.(check int) "vertices" 12 (Graph.n_vertices g);
  Alcotest.(check bool) "directed" true (Graph.is_directed g);
  let reaches_last v =
    List.exists (fun t -> Dijkstra.reachable g ~src:v ~dst:t) [ 9; 10; 11 ]
  in
  List.iter
    (fun v -> Alcotest.(check bool) "no dead end" true (reaches_last v))
    [ 0; 1; 2 ];
  Graph.fold_edges
    (fun e () ->
      Alcotest.(check bool) "capacity range" true
        (e.Graph.capacity >= 1.0 && e.Graph.capacity <= 2.0))
    g ()

let test_erdos_renyi_deterministic () =
  let build () =
    let rng = Rng.create 8 in
    Gen.erdos_renyi rng ~n:10 ~edge_prob:0.4 ~directed:true ~capacity_lo:1.0
      ~capacity_hi:3.0
  in
  let a = build () and b = build () in
  Alcotest.(check int) "same edge count" (Graph.n_edges a) (Graph.n_edges b);
  for i = 0 to Graph.n_edges a - 1 do
    let ea = Graph.edge a i and eb = Graph.edge b i in
    Alcotest.(check bool) "same edge" true
      (ea.Graph.u = eb.Graph.u && ea.Graph.v = eb.Graph.v
      && ea.Graph.capacity = eb.Graph.capacity)
  done

let test_ring_structure () =
  let g = Gen.ring ~n:6 ~capacity:1.5 in
  Alcotest.(check int) "edges" 6 (Graph.n_edges g);
  Alcotest.check_raises "too small" (Invalid_argument "Generators.ring: n < 3")
    (fun () -> ignore (Gen.ring ~n:2 ~capacity:1.0))

let test_abilene_structure () =
  let g = Gen.abilene ~capacity:10.0 in
  Alcotest.(check int) "11 PoPs" 11 (Graph.n_vertices g);
  Alcotest.(check int) "14 links" 14 (Graph.n_edges g);
  Alcotest.(check int) "names match" 11 (Array.length Gen.Abilene.names);
  Alcotest.(check bool) "undirected" false (Graph.is_directed g);
  (* Fully connected: Seattle reaches every PoP. *)
  for v = 1 to 10 do
    Alcotest.(check bool)
      (Printf.sprintf "Seattle reaches %s" Gen.Abilene.names.(v))
      true
      (Dijkstra.reachable g ~src:0 ~dst:v)
  done;
  (* The backbone is 2-edge-connected: min cut between coasts >= 2. *)
  let flow = Ufp_graph.Maxflow.max_flow g ~src:0 ~dst:10 in
  Alcotest.(check bool) "two disjoint coast-to-coast routes" true
    (flow.Ufp_graph.Maxflow.value >= 20.0 -. Float_tol.check_eps)

(* --- Maxflow --- *)

module Maxflow = Ufp_graph.Maxflow

(* Net out-flow minus in-flow at a vertex, from the per-edge flows. *)
let net_outflow g (flow : float array) v =
  Graph.fold_edges
    (fun e acc ->
      if e.Graph.u = v then acc +. flow.(e.Graph.id)
      else if e.Graph.v = v then acc -. flow.(e.Graph.id)
      else acc)
    g 0.0

let check_flow_valid g (r : Maxflow.result) ~src ~dst =
  Graph.fold_edges
    (fun e () ->
      let f = r.Maxflow.flow.(e.Graph.id) in
      let lo = if Graph.is_directed g then 0.0 else -.e.Graph.capacity in
      Alcotest.(check bool) "within capacity" true
        (f >= lo -. Float_tol.check_eps && f <= e.Graph.capacity +. Float_tol.check_eps))
    g ();
  for v = 0 to Graph.n_vertices g - 1 do
    if v <> src && v <> dst then
      Alcotest.(check (float Float_tol.loose_check_eps)) "conservation" 0.0 (net_outflow g r.Maxflow.flow v)
  done;
  Alcotest.(check (float Float_tol.loose_check_eps)) "source emits the value" r.Maxflow.value
    (net_outflow g r.Maxflow.flow src)

let test_maxflow_diamond () =
  let g, _, _, _, _, _ = diamond () in
  let r = Maxflow.max_flow g ~src:0 ~dst:3 in
  check_float "value 2+4+1" 7.0 r.Maxflow.value;
  check_flow_valid g r ~src:0 ~dst:3

let test_maxflow_respects_orientation () =
  let g, _, _, _, _, _ = diamond () in
  check_float "no reverse flow" 0.0 (Maxflow.max_flow g ~src:3 ~dst:0).Maxflow.value

let test_maxflow_undirected_ring () =
  let g = Gen.ring ~n:6 ~capacity:3.0 in
  let r = Maxflow.max_flow g ~src:0 ~dst:3 in
  check_float "both directions used" 6.0 r.Maxflow.value;
  check_flow_valid g r ~src:0 ~dst:3

let test_maxflow_grid () =
  let g = Gen.grid ~rows:2 ~cols:2 ~capacity:5.0 in
  check_float "corner to corner" 10.0
    (Maxflow.max_flow g ~src:0 ~dst:3).Maxflow.value

let test_maxflow_unreachable () =
  let g = Graph.create ~directed:true ~n:3 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0);
  check_float "zero" 0.0 (Maxflow.max_flow g ~src:0 ~dst:2).Maxflow.value

let test_maxflow_validation () =
  let g, _, _, _, _, _ = diamond () in
  Alcotest.check_raises "src = dst" (Invalid_argument "Maxflow.max_flow: src = dst")
    (fun () -> ignore (Maxflow.max_flow g ~src:1 ~dst:1));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Maxflow.max_flow: vertex out of range") (fun () ->
      ignore (Maxflow.max_flow g ~src:0 ~dst:9))

let test_maxflow_multi_staircase () =
  (* The Figure 2 staircase saturates: total flow l * B — the
     independent certificate that OPT = lB for Theorem 3.11. *)
  let l = 8 and b = 4 in
  let sc = Gen.staircase ~levels:l ~capacity:(float_of_int b) in
  let sources =
    Array.to_list (Array.map (fun s -> (s, float_of_int b)) sc.Gen.sources)
  in
  let r =
    Maxflow.max_flow_multi sc.Gen.graph ~sources
      ~sinks:[ (sc.Gen.sink, float_of_int (l * b)) ]
  in
  check_float "staircase saturates" (float_of_int (l * b)) r.Maxflow.value

let test_maxflow_multi_validation () =
  let g, _, _, _, _, _ = diamond () in
  Alcotest.check_raises "bad budget"
    (Invalid_argument "Maxflow.max_flow_multi: budget <= 0") (fun () ->
      ignore (Maxflow.max_flow_multi g ~sources:[ (0, 0.0) ] ~sinks:[ (3, 1.0) ]))

(* Max-flow/min-cut: after Dinic, the vertices reachable from the
   source in the residual network define a cut whose capacity equals
   the flow value — verifying optimality, not just feasibility. *)
let residual_cut_capacity g (r : Maxflow.result) ~src =
  let n = Graph.n_vertices g in
  let reachable = Array.make n false in
  reachable.(src) <- true;
  let queue = Queue.create () in
  Queue.add src queue;
  let residual_to u v eid =
    let e = Graph.edge g eid in
    let f = r.Maxflow.flow.(eid) in
    if Graph.is_directed g then
      if e.Graph.u = u && e.Graph.v = v then e.Graph.capacity -. f
      else if e.Graph.v = u && e.Graph.u = v then f
      else 0.0
    else if e.Graph.u = u && e.Graph.v = v then e.Graph.capacity -. f
    else if e.Graph.v = u && e.Graph.u = v then e.Graph.capacity +. f
    else 0.0
  in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.fold_edges
      (fun e () ->
        List.iter
          (fun v ->
            if
              v <> u
              && (not reachable.(v))
              && (e.Graph.u = u || e.Graph.v = u)
              && (e.Graph.u = v || e.Graph.v = v)
              && residual_to u v e.Graph.id > Float_tol.check_eps
            then begin
              reachable.(v) <- true;
              Queue.add v queue
            end)
          [ e.Graph.u; e.Graph.v ])
      g ()
  done;
  let cut =
    Graph.fold_edges
      (fun e acc ->
        let crosses_forward = reachable.(e.Graph.u) && not reachable.(e.Graph.v) in
        let crosses_backward = reachable.(e.Graph.v) && not reachable.(e.Graph.u) in
        if Graph.is_directed g then
          if crosses_forward then acc +. e.Graph.capacity else acc
        else if crosses_forward || crosses_backward then acc +. e.Graph.capacity
        else acc)
      g 0.0
  in
  (cut, reachable)

let qcheck_maxflow_equals_mincut =
  QCheck.Test.make ~name:"max flow equals a residual min cut" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 7) in
      let directed = seed mod 2 = 0 in
      let g =
        Gen.erdos_renyi rng ~n:8 ~edge_prob:0.45 ~directed ~capacity_lo:1.0
          ~capacity_hi:4.0
      in
      if Graph.n_edges g = 0 then true
      else begin
        let r = Maxflow.max_flow g ~src:0 ~dst:7 in
        let cut, reachable = residual_cut_capacity g r ~src:0 in
        (* The sink must be cut off, and the cut certifies optimality. *)
        (not reachable.(7)) && Float.abs (cut -. r.Maxflow.value) < Float_tol.loose_check_eps
      end)

let qcheck_maxflow_bounded_by_cut =
  QCheck.Test.make ~name:"max flow bounded by source/sink degree cuts" ~count:50
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g =
        Gen.erdos_renyi rng ~n:8 ~edge_prob:0.4 ~directed:true ~capacity_lo:1.0
          ~capacity_hi:4.0
      in
      if Graph.n_edges g = 0 then true
      else begin
        let out_cap v =
          List.fold_left
            (fun acc (e, _) -> acc +. Graph.capacity g e)
            0.0 (Graph.out_edges g v)
        in
        let r = Maxflow.max_flow g ~src:0 ~dst:7 in
        r.Maxflow.value <= out_cap 0 +. Float_tol.check_eps && r.Maxflow.value >= -.1e-9
      end)

(* --- QCheck --- *)

let random_graph seed =
  let rng = Rng.create seed in
  Gen.erdos_renyi rng ~n:12 ~edge_prob:0.3 ~directed:false ~capacity_lo:1.0
    ~capacity_hi:5.0

let qcheck_dijkstra_path_length =
  QCheck.Test.make ~name:"dijkstra path length equals reported distance"
    ~count:100
    QCheck.(pair small_int (pair (int_bound 11) (int_bound 11)))
    (fun (seed, (src, dst)) ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 1) in
      let w =
        Array.init (max 1 (Graph.n_edges g)) (fun _ -> Rng.float_in rng 0.1 3.0)
      in
      match Dijkstra.shortest_path g ~weight:(fun e -> w.(e)) ~src ~dst with
      | None -> true
      | Some (len, path) ->
        (src = dst && path = [])
        || (Path.is_valid g ~src ~dst path
           && Float.abs (Path.length ~weight:(fun e -> w.(e)) path -. len) < Float_tol.check_eps))

let qcheck_dijkstra_optimal_vs_enumeration =
  QCheck.Test.make ~name:"dijkstra distance matches exhaustive minimum" ~count:30
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g =
        Gen.erdos_renyi rng ~n:7 ~edge_prob:0.4 ~directed:true ~capacity_lo:1.0
          ~capacity_hi:2.0
      in
      if Graph.n_edges g = 0 then true
      else begin
        let w = Array.init (Graph.n_edges g) (fun _ -> Rng.float_in rng 0.1 1.0) in
        let weight e = w.(e) in
        let ok = ref true in
        for src = 0 to 6 do
          for dst = 0 to 6 do
            if src <> dst then begin
              let brute =
                Enumerate.simple_paths g ~src ~dst
                |> List.fold_left
                     (fun acc p -> Float.min acc (Path.length ~weight p))
                     infinity
              in
              let dij =
                match Dijkstra.shortest_path g ~weight ~src ~dst with
                | Some (len, _) -> len
                | None -> infinity
              in
              if brute <> dij && Float.abs (brute -. dij) > Float_tol.check_eps then ok := false
            end
          done
        done;
        !ok
      end)

let qcheck_workspace_matches_allocating =
  QCheck.Test.make ~name:"workspace dijkstra equals allocating dijkstra"
    ~count:100
    QCheck.(pair small_int (int_bound 11))
    (fun (seed, src) ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 13) in
      let w =
        Array.init (max 1 (Graph.n_edges g)) (fun _ -> Rng.float_in rng 0.1 3.0)
      in
      let weight e = w.(e) in
      let fresh = Dijkstra.shortest_tree g ~weight ~src in
      let n = Graph.n_vertices g in
      let ws = Dijkstra.create_workspace g in
      let dist = Array.make n nan in
      let parent_edge = Array.make n min_int in
      (* Run twice through the same workspace: results must match the
         allocating version byte for byte, including on reuse. *)
      Dijkstra.shortest_tree_into ws g ~weight ~src:(11 - src) ~dist
        ~parent_edge;
      Dijkstra.shortest_tree_into ws g ~weight ~src ~dist ~parent_edge;
      dist = fresh.Dijkstra.dist && parent_edge = fresh.Dijkstra.parent_edge)

let qcheck_enumerate_simple =
  QCheck.Test.make ~name:"enumerated paths are simple and distinct" ~count:50
    QCheck.small_int (fun seed ->
      let g = random_graph seed in
      let paths = Enumerate.simple_paths ~max_paths:500 g ~src:0 ~dst:5 in
      List.for_all (fun p -> Path.is_valid g ~src:0 ~dst:5 p) paths
      && List.length (List.sort_uniq compare paths) = List.length paths)

(* --- streaming CSR builder + scale regressions --- *)

(* Regression: out_edges used a non-tail-recursive gather and blew the
   stack on hub-degree rows (RMAT's degree skew hits this first). A
   500k-out-degree star must come back intact, in insertion order. *)
let test_out_edges_hub_degree () =
  let deg = 500_000 in
  let g =
    Graph.of_edge_stream ~directed:true ~n:(deg + 1) ~m:deg ~f:(fun i ->
        (0, i + 1, 1.0))
  in
  let es = Graph.out_edges g 0 in
  Alcotest.(check int) "degree" deg (List.length es);
  Alcotest.(check (pair int int)) "first" (0, 1) (List.hd es);
  Alcotest.(check (pair int int))
    "last"
    (deg - 1, deg)
    (List.nth es (deg - 1))

let test_of_edge_stream_matches_add_edge () =
  List.iter
    (fun directed ->
      let spec = [ (0, 1, 2.0); (2, 1, 3.0); (0, 3, 1.0); (1, 3, 5.0) ] in
      let arr = Array.of_list spec in
      let a = Graph.create ~directed ~n:4 in
      List.iter (fun (u, v, capacity) -> ignore (Graph.add_edge a ~u ~v ~capacity)) spec;
      let b =
        Graph.of_edge_stream ~directed ~n:4 ~m:(Array.length arr)
          ~f:(fun i -> arr.(i))
      in
      Alcotest.(check int) "edge count" (Graph.n_edges a) (Graph.n_edges b);
      for v = 0 to 3 do
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "row %d (directed %b)" v directed)
          (Graph.out_edges a v) (Graph.out_edges b v)
      done;
      for i = 0 to Graph.n_edges a - 1 do
        let ea = Graph.edge a i and eb = Graph.edge b i in
        Alcotest.(check bool) "edge record" true
          (ea.Graph.u = eb.Graph.u && ea.Graph.v = eb.Graph.v
          && ea.Graph.capacity = eb.Graph.capacity)
      done)
    [ true; false ]

let test_of_edge_stream_empty () =
  let g = Graph.of_edge_stream ~directed:true ~n:3 ~m:0 ~f:(fun _ -> assert false) in
  Alcotest.(check int) "no edges" 0 (Graph.n_edges g);
  Alcotest.(check (list (pair int int))) "empty row" [] (Graph.out_edges g 2)

let test_of_edge_stream_validation () =
  let stream ~n ~m f () = ignore (Graph.of_edge_stream ~directed:true ~n ~m ~f) in
  Alcotest.check_raises "negative n"
    (Invalid_argument "Graph.of_edge_stream: negative vertex count")
    (stream ~n:(-1) ~m:0 (fun _ -> assert false));
  Alcotest.check_raises "negative m"
    (Invalid_argument "Graph.of_edge_stream: negative edge count")
    (stream ~n:2 ~m:(-1) (fun _ -> assert false));
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Graph.of_edge_stream: endpoint out of range")
    (stream ~n:2 ~m:1 (fun _ -> (0, 2, 1.0)));
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.of_edge_stream: self loop")
    (stream ~n:2 ~m:1 (fun _ -> (1, 1, 1.0)));
  Alcotest.check_raises "capacity"
    (Invalid_argument "Graph.of_edge_stream: capacity must be positive and finite")
    (stream ~n:2 ~m:1 (fun _ -> (0, 1, nan)));
  (* Too many row offsets to index, or to allocate (on a 64-bit host
     the last count asks malloc for 2^57 bytes), or ids too large for
     a packed cell's 32-bit half: those counts are rejected before
     anything is allocated (past the check, the first would ask for
     16 GB of row offsets, the edge count for 16 GB of columns). *)
  let unpackable = Graph.Csr.Cells.max_packed + 2 in
  List.iter
    (fun n ->
      Alcotest.check_raises "vertex count too large"
        (Invalid_argument "Graph.of_edge_stream: vertex count too large")
        (stream ~n ~m:0 (fun _ -> assert false)))
    [ unpackable; max_int; Sys.max_array_length; Sys.max_array_length - 1 ];
  Alcotest.check_raises "edge count too large"
    (Invalid_argument "Graph.of_edge_stream: edge count too large")
    (stream ~n:2 ~m:unpackable (fun _ -> assert false))

(* [Graph.csr] checks the same packed-cell bound as [of_edge_stream],
   before it allocates row offsets for the vertices. *)
let test_csr_packed_bound () =
  let g = Graph.create ~directed:true ~n:(Graph.Csr.Cells.max_packed + 2) in
  Alcotest.check_raises "vertex count too large"
    (Invalid_argument "Graph.csr: vertex count too large") (fun () ->
      ignore (Graph.csr g))

(* --- RMAT generator --- *)

(* --- Graph.rescale: its own capacity column, the source's endpoint
   columns and adjacency --- *)

let bits = Int64.bits_of_float

let rows g =
  let c = Graph.csr g in
  let ids, neighbors = cell_halves c in
  (Array.copy c.Graph.Csr.row_start, neighbors, ids)

let test_rescale_shares_adjacency () =
  let g, _, _, _, _, _ = diamond () in
  let d = 3.0 in
  (* The source has no CSR yet: rescale builds it once, for both. *)
  let c = Graph.rescale g ~divisor:d in
  Alcotest.(check bool) "csr shared" true (Graph.csr c == Graph.csr g);
  (* One adjacency: the alias kept for perfbench is the CSR itself. *)
  Alcotest.(check bool) "csr_view is csr" true (Graph.csr_view c == Graph.csr c);
  let c' = Graph.rescale g ~divisor:d in
  Alcotest.(check bool) "csr shared again" true (Graph.csr c' == Graph.csr g);
  Alcotest.(check int) "edges" (Graph.n_edges g) (Graph.n_edges c);
  for e = 0 to Graph.n_edges g - 1 do
    let a = Graph.edge g e and b = Graph.edge c e in
    Alcotest.(check (list int)) "same edge" [ a.Graph.id; a.Graph.u; a.Graph.v ]
      [ b.Graph.id; b.Graph.u; b.Graph.v ];
    Alcotest.(check int64) "capacity is c /. d" (bits (a.Graph.capacity /. d))
      (bits b.Graph.capacity)
  done

let test_rescale_add_edge_detaches () =
  let check_rows msg expected g =
    let r, n, e = rows g and r', n', e' = expected in
    Alcotest.(check (array int)) (msg ^ " row_start") r' r;
    Alcotest.(check (array int)) (msg ^ " neighbors") n' n;
    Alcotest.(check (array int)) (msg ^ " edge ids") e' e
  in
  (* On the copy: the source keeps its arrays and rows. *)
  let g, _, _, _, _, _ = diamond () in
  let c = Graph.rescale g ~divisor:2.0 in
  let shared = Graph.csr g and before = rows g in
  let id = Graph.add_edge c ~u:3 ~v:0 ~capacity:1.0 in
  Alcotest.(check bool) "source csr kept" true (Graph.csr g == shared);
  check_rows "source" before g;
  Alcotest.(check (list (pair int int))) "copy row gained the edge" [ (id, 0) ]
    (Graph.out_edges c 3);
  (* On the source: the copy keeps its arrays and rows. *)
  let g, _, _, _, _, _ = diamond () in
  let c = Graph.rescale g ~divisor:2.0 in
  let shared = Graph.csr c and before = rows c in
  ignore (Graph.add_edge g ~u:3 ~v:1 ~capacity:1.0);
  Alcotest.(check bool) "copy csr kept" true (Graph.csr c == shared);
  check_rows "copy" before c;
  Alcotest.(check int) "copy edges" 5 (Graph.n_edges c);
  Alcotest.(check int) "source row gained the edge" 1 (List.length (Graph.out_edges g 3))

let test_rescale_validation () =
  let g = Graph.create ~directed:true ~n:2 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:Float.max_float);
  Alcotest.check_raises "overflow"
    (Invalid_argument "Graph.rescale: capacity must be positive and finite")
    (fun () -> ignore (Graph.rescale g ~divisor:0.5));
  Alcotest.check_raises "underflow"
    (Invalid_argument "Graph.rescale: capacity must be positive and finite")
    (fun () -> ignore (Graph.rescale g ~divisor:infinity));
  (* normalize divides by the largest demand through rescale. *)
  let inst =
    Ufp_instance.Instance.create g
      [| Ufp_instance.Request.make ~src:0 ~dst:1 ~demand:0.5 ~value:1.0 |]
  in
  Alcotest.check_raises "normalize overflow"
    (Invalid_argument "Graph.rescale: capacity must be positive and finite")
    (fun () -> ignore (Ufp_instance.Instance.normalize inst))

(* Io.load streams the edges into one CSR build, and normalize's copy
   shares it: the solve that follows builds no CSR. *)
let test_load_streams_one_build () =
  let count name =
    Option.value ~default:0
      (List.assoc_opt name (Ufp_obs.Metrics.snapshot ()).Ufp_obs.Metrics.counters)
  in
  let g = Gen.grid ~rows:3 ~cols:3 ~capacity:4.0 in
  let inst =
    Ufp_instance.Instance.create g
      [| Ufp_instance.Request.make ~src:0 ~dst:8 ~demand:2.0 ~value:1.0 |]
  in
  let path = Filename.temp_file "ufp" ".inst" in
  Ufp_instance.Io.save path inst;
  for _ = 1 to 2 do
    let streams = count "graph.stream_builds" and csrs = count "graph.csr_builds" in
    let loaded =
      match Ufp_instance.Io.load path with Ok i -> i | Error m -> Alcotest.fail m
    in
    Alcotest.(check int) "one stream build per load" (streams + 1)
      (count "graph.stream_builds");
    Alcotest.(check int) "one csr build per load" (csrs + 1) (count "graph.csr_builds");
    let norm = Ufp_instance.Instance.normalize loaded in
    Alcotest.(check bool) "normalize copied" false (norm == loaded);
    ignore (Graph.csr (Ufp_instance.Instance.graph norm));
    Alcotest.(check int) "no csr build after load" (csrs + 1) (count "graph.csr_builds")
  done;
  Sys.remove path

(* --- Column-store law --- *)

(* Where [g] disagrees with the reference triples [r] (edge [i] is
   [r.(i)] as [(u, v, capacity)]) on any edge reader or adjacency
   view, bit for bit; [None] when it agrees on all of them. *)
let column_mismatch g r =
  let m = Array.length r and n = Graph.n_vertices g in
  let ids = List.init m Fun.id in
  let same_record i (e : Graph.edge) =
    let u, v, c = r.(i) in
    e.Graph.id = i && e.Graph.u = u && e.Graph.v = v
    && Int64.equal (bits e.Graph.capacity) (bits c)
  in
  let cap i = match r.(i) with _, _, c -> c in
  (* Each vertex's (edge id, neighbor) pairs in increasing edge id. *)
  let rows = Array.make n [] in
  for i = m - 1 downto 0 do
    let u, v, _ = r.(i) in
    rows.(u) <- (i, v) :: rows.(u);
    if not (Graph.is_directed g) then rows.(v) <- (i, u) :: rows.(v)
  done;
  let csr_row w =
    let c = Graph.csr g in
    let lo = c.Graph.Csr.row_start.(w) and hi = c.Graph.Csr.row_start.(w + 1) in
    let cells = c.Graph.Csr.cells in
    List.init (hi - lo) (fun k ->
        (Graph.Csr.Cells.snd cells (lo + k), Graph.Csr.Cells.fst cells (lo + k)))
  in
  let checks =
    [
      ("n_edges", fun () -> Graph.n_edges g = m);
      ("edge", fun () -> List.for_all (fun i -> same_record i (Graph.edge g i)) ids);
      ( "fold_edges",
        fun () ->
          let es = List.rev (Graph.fold_edges (fun e acc -> e :: acc) g []) in
          List.length es = m && List.for_all2 same_record ids es );
      ( "capacity",
        fun () ->
          List.for_all (fun i -> Int64.equal (bits (Graph.capacity g i)) (bits (cap i))) ids );
      ( "capacities",
        fun () ->
          let cs = Graph.capacities g in
          Array.length cs = m
          && List.for_all (fun i -> Int64.equal (bits cs.(i)) (bits (cap i))) ids );
      ( "min_capacity",
        fun () ->
          m = 0
          || Int64.equal
               (bits (Graph.min_capacity g))
               (bits (List.fold_left (fun acc i -> Float.min acc (cap i)) infinity ids)) );
      ( "other_endpoint",
        fun () ->
          List.for_all
            (fun i ->
              let u, v, _ = r.(i) in
              Graph.other_endpoint g i u = v && Graph.other_endpoint g i v = u)
            ids );
      ( "out_edges",
        fun () -> List.for_all (fun w -> Graph.out_edges g w = rows.(w)) (List.init n Fun.id)
      );
      ( "csr rows",
        fun () ->
          let c = Graph.csr g in
          let slots = if Graph.is_directed g then m else 2 * m in
          c.Graph.Csr.row_start.(n) = slots
          && Graph.Csr.Cells.length c.Graph.Csr.cells = slots
          && List.for_all (fun w -> csr_row w = rows.(w)) (List.init n Fun.id) );
    ]
  in
  List.find_map (fun (name, ok) -> if ok () then None else Some name) checks

(* A graph built by add_edge (columns with spare slots) or streamed
   (columns exactly m long), then a random walk of add_edges and
   rescales on any graph made so far: after every step, every graph
   must still read back exactly its own reference triples. A rescale
   copy sharing a column with spare slots fails here: the add_edges on
   both sides of it write the same slot. *)
let qcheck_column_store =
  QCheck.Test.make ~name:"edge columns read back a reference edge list" ~count:300
    (QCheck.int_bound 0x3FFFFFFF) (fun seed ->
      let rng = Rng.create seed in
      let directed = Rng.bool rng and n = 2 + Rng.int rng 7 in
      let triple () =
        let u = Rng.int rng n in
        (u, (u + 1 + Rng.int rng (n - 1)) mod n, Rng.float_in rng 0.5 1000.0)
      in
      let spec = Array.init (Rng.int rng 24) (fun _ -> triple ()) in
      let by_add_edge = Rng.bool rng in
      let first =
        if by_add_edge then begin
          let g = Graph.create ~directed ~n in
          Array.iter (fun (u, v, capacity) -> ignore (Graph.add_edge g ~u ~v ~capacity)) spec;
          g
        end
        else Graph.of_edge_stream ~directed ~n ~m:(Array.length spec) ~f:(fun i -> spec.(i))
      in
      let graphs = ref [ (first, spec) ] and log = Buffer.create 64 in
      let check () =
        List.iteri
          (fun k (g, r) ->
            match column_mismatch g r with
            | None -> ()
            | Some what ->
              QCheck.Test.fail_reportf "%s %s graph, steps [%s]: graph %d: %s differs"
                (if directed then "directed" else "undirected")
                (if by_add_edge then "add_edge" else "streamed")
                (Buffer.contents log) k what)
          !graphs
      in
      check ();
      for _ = 1 to 12 do
        let k = Rng.int rng (List.length !graphs) in
        let g, r = List.nth !graphs k in
        if Rng.int rng 3 = 0 then begin
          let divisor = Rng.pick rng [| 1.0; 3.0; 0.5; 1.75; 4.0 |] in
          Buffer.add_string log (Printf.sprintf " rescale %d /%g;" k divisor);
          let copy = Graph.rescale g ~divisor in
          graphs := !graphs @ [ (copy, Array.map (fun (u, v, c) -> (u, v, c /. divisor)) r) ]
        end
        else begin
          let ((u, v, capacity) as t) = triple () in
          Buffer.add_string log (Printf.sprintf " add %d;" k);
          ignore (Graph.add_edge g ~u ~v ~capacity);
          graphs := List.mapi (fun j p -> if j = k then (g, Array.append r [| t |]) else p) !graphs
        end;
        check ()
      done;
      true)

(* A loaded, normalized directed RMAT graph, ready to traverse, holds
   its three edge columns and its one adjacency, the packed CSR: four
   words per edge (one 8-byte cell each) and one per vertex. Four per
   edge plus two per vertex leaves room for headers and nothing per
   edge: a second adjacency (unpacked neighbor and edge-id rows, two
   words per edge) or a heap record per edge (five words, and two for
   its boxed capacity) breaks the bound. *)
let test_loaded_graph_words () =
  let rmat =
    Gen.rmat (Rng.create 5) ~scale:10 ~edge_factor:16 ~capacity_lo:1.0
      ~capacity_hi:100.0 ()
  in
  let raw =
    Ufp_instance.Instance.create rmat
      [| Ufp_instance.Request.make ~src:0 ~dst:1 ~demand:2.0 ~value:1.0 |]
  in
  let inst =
    match Ufp_instance.Io.of_string (Ufp_instance.Io.to_string raw) with
    | Ok i -> Ufp_instance.Instance.normalize i
    | Error msg -> Alcotest.fail msg
  in
  let g = Ufp_instance.Instance.graph inst in
  ignore (Graph.csr g);
  let m = Graph.n_edges g and n = Graph.n_vertices g in
  let words = Obj.reachable_words (Obj.repr g) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words for %d edges and %d vertices (%.2f per edge)" words m n
       (float_of_int words /. float_of_int m))
    true
    (words <= (4 * m) + (2 * n) + 64)

let test_rmat_deterministic () =
  let build () =
    let rng = Rng.create 11 in
    Gen.rmat rng ~scale:6 ~edge_factor:4 ~capacity_lo:1.0 ~capacity_hi:2.0 ()
  in
  let a = build () and b = build () in
  Alcotest.(check int) "same edge count" (Graph.n_edges a) (Graph.n_edges b);
  for i = 0 to Graph.n_edges a - 1 do
    let ea = Graph.edge a i and eb = Graph.edge b i in
    Alcotest.(check bool) "same edge" true
      (ea.Graph.u = eb.Graph.u && ea.Graph.v = eb.Graph.v
      && ea.Graph.capacity = eb.Graph.capacity)
  done

(* The CSR row widths must account for every drawn edge: their sum is
   m on a directed graph and 2m undirected (each edge in both rows). *)
let test_rmat_degree_sum () =
  List.iter
    (fun directed ->
      let rng = Rng.create 3 in
      let g =
        Gen.rmat rng ~scale:7 ~edge_factor:5 ~directed ~capacity_lo:1.0
          ~capacity_hi:2.0 ()
      in
      let n = Graph.n_vertices g and m = Graph.n_edges g in
      Alcotest.(check int) "vertices" 128 n;
      Alcotest.(check int) "edges" (5 * 128) m;
      let sum = ref 0 in
      for v = 0 to n - 1 do
        sum := !sum + List.length (Graph.out_edges g v)
      done;
      Alcotest.(check int) "degree sum" (if directed then m else 2 * m) !sum;
      Graph.fold_edges
        (fun e () ->
          if e.Graph.u = e.Graph.v then Alcotest.fail "self loop survived")
        g ())
    [ true; false ]

let test_rmat_validation () =
  let rng = Rng.create 1 in
  let rmat ?a ?b ?c ?d ?(scale = 4) ?(edge_factor = 2) ?(capacity_lo = 1.0)
      ?(capacity_hi = 2.0) () () =
    ignore (Gen.rmat rng ~scale ~edge_factor ?a ?b ?c ?d ~capacity_lo ~capacity_hi ())
  in
  Alcotest.check_raises "scale 0"
    (Invalid_argument "Generators.rmat: scale must be in [1, 30]")
    (rmat ~scale:0 ());
  Alcotest.check_raises "scale 31"
    (Invalid_argument "Generators.rmat: scale must be in [1, 30]")
    (rmat ~scale:31 ());
  Alcotest.check_raises "edge factor"
    (Invalid_argument "Generators.rmat: edge_factor < 1")
    (rmat ~edge_factor:0 ());
  Alcotest.check_raises "prob out of range"
    (Invalid_argument "Generators.rmat: probability a must be in [0, 1]")
    (rmat ~a:1.2 ());
  Alcotest.check_raises "prob nan"
    (Invalid_argument "Generators.rmat: probability b must be in [0, 1]")
    (rmat ~b:nan ());
  Alcotest.check_raises "prob sum"
    (Invalid_argument "Generators.rmat: quadrant probabilities must sum to 1")
    (rmat ~a:0.5 ~b:0.5 ~c:0.5 ~d:0.5 ());
  Alcotest.check_raises "capacity range"
    (Invalid_argument "Generators.rmat: bad capacity range")
    (rmat ~capacity_lo:2.0 ~capacity_hi:1.0 ())

let test_edge_prob_validation () =
  let rng = Rng.create 1 in
  List.iter
    (fun p ->
      Alcotest.check_raises "layered"
        (Invalid_argument "Generators.layered: edge_prob must be in [0, 1]")
        (fun () ->
          ignore
            (Gen.layered rng ~layers:2 ~width:2 ~edge_prob:p ~capacity_lo:1.0
               ~capacity_hi:2.0));
      Alcotest.check_raises "erdos_renyi"
        (Invalid_argument "Generators.erdos_renyi: edge_prob must be in [0, 1]")
        (fun () ->
          ignore
            (Gen.erdos_renyi rng ~n:4 ~edge_prob:p ~directed:false
               ~capacity_lo:1.0 ~capacity_hi:2.0)))
    [ -0.1; 1.5; nan ]

(* --- packed CSR cells: the 32-bit builder guard --- *)

let test_pack_rejects_oversized () =
  Alcotest.check_raises "value above 2^31-1 is rejected"
    (Invalid_argument "Graph.Csr.Cells.pack: value out of 32-bit range at slot 1")
    (fun () ->
      ignore (Graph.Csr.Cells.pack [| 0; Graph.Csr.Cells.max_packed + 1 |] [| 0; 0 |]))

let test_pack_rejects_negative () =
  Alcotest.check_raises "negative value is rejected"
    (Invalid_argument "Graph.Csr.Cells.pack: value out of 32-bit range at slot 0")
    (fun () -> ignore (Graph.Csr.Cells.pack [| -1 |] [| 0 |]))

let test_pack_roundtrip_boundary () =
  let a = [| 0; Graph.Csr.Cells.max_packed; 7 |] in
  let b = [| Graph.Csr.Cells.max_packed; 0; 123456789 |] in
  let c = Graph.Csr.Cells.pack a b in
  for k = 0 to 2 do
    Alcotest.(check int) "fst" a.(k) (Graph.Csr.Cells.fst c k);
    Alcotest.(check int) "snd" b.(k) (Graph.Csr.Cells.snd c k)
  done

(* --- shortest-path tree oracle ---

   Dijkstra is the only tree kernel, so its trees are checked against
   properties rather than against a second implementation (the style
   of toysolver's isValidPath laws). For a tree (dist, parent_edge)
   from [src] under weights [w]:
   - dist.(v) is finite exactly when a BFS over finite-weight edges
     reaches v;
   - every parent edge enters its vertex and is tight bit for bit:
     dist v = dist u +. w e;
   - no edge relaxes any vertex further;
   - following parents from any reached vertex ends at [src], which
     has distance 0 and no parent.
   The arcs the oracle walks come from [Graph.fold_edges], not from
   the CSR under test. *)

(* Every traversable (tail, head, edge id) arc: undirected edges both
   ways. *)
let arcs g =
  Graph.fold_edges
    (fun e acc ->
      let acc = (e.Graph.u, e.Graph.v, e.Graph.id) :: acc in
      if Graph.is_directed g then acc else (e.Graph.v, e.Graph.u, e.Graph.id) :: acc)
    g []

let finite_reachable ~n arcs w ~src =
  let out = Array.make n [] in
  List.iter
    (fun (u, v, e) -> if Float.is_finite w.(e) then out.(u) <- v :: out.(u))
    arcs;
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end)
      out.(Queue.pop queue)
  done;
  seen

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The first oracle property the tree breaks, or [None]. *)
let tree_violation g w ~src (dist, parent) =
  let n = Graph.n_vertices g in
  let arcs = arcs g in
  let reach = finite_reachable ~n arcs w ~src in
  let fail fmt = Printf.ksprintf Option.some fmt in
  let vertex v =
    if reach.(v) <> Float.is_finite dist.(v) then
      fail "vertex %d: reached by BFS = %b, dist = %h" v reach.(v) dist.(v)
    else if v = src then
      if same_bits dist.(v) 0.0 && parent.(v) = -1 then None
      else fail "source %d: dist %h, parent %d" v dist.(v) parent.(v)
    else if not reach.(v) then
      if parent.(v) = -1 then None
      else fail "unreached vertex %d has parent %d" v parent.(v)
    else begin
      let e = parent.(v) in
      if e < 0 || e >= Graph.n_edges g then
        fail "reached vertex %d has parent %d" v e
      else begin
        let edge = Graph.edge g e in
        let enters =
          edge.Graph.v = v || ((not (Graph.is_directed g)) && edge.Graph.u = v)
        in
        if not enters then fail "parent edge %d does not enter vertex %d" e v
        else begin
          let u = Graph.other_endpoint g e v in
          if same_bits dist.(v) (dist.(u) +. w.(e)) then None
          else
            fail "parent edge %d of vertex %d is not tight: %h <> %h +. %h" e v
              dist.(v) dist.(u) w.(e)
        end
      end
    end
  in
  (* An acyclic parent chain has at most n - 1 edges, so a longer walk
     has found a cycle. *)
  let rooted v =
    let rec walk cur steps =
      if cur = src then None
      else if steps > n then fail "parent walk from %d cycles" v
      else
        match parent.(cur) with
        | -1 -> fail "parent walk from %d stops at %d, not the source" v cur
        | e -> walk (Graph.other_endpoint g e cur) (steps + 1)
    in
    if Float.is_finite dist.(v) then walk v 0 else None
  in
  let relaxes (u, v, e) =
    if Float.is_finite dist.(u) && Float.compare (dist.(u) +. w.(e)) dist.(v) < 0
    then fail "edge %d (%d -> %d) still relaxes its head" e u v
    else None
  in
  let rec first_vertex check v =
    if v = n then None
    else match check v with None -> first_vertex check (v + 1) | bad -> bad
  in
  match first_vertex vertex 0 with
  | Some _ as bad -> bad
  | None -> (
    match List.find_map relaxes arcs with
    | Some _ as bad -> bad
    | None -> first_vertex rooted 0)

(* The Dijkstra tree of [g] from [src] under [w], checked against the
   oracle. *)
let oracle_tree g w ~src =
  let n = Graph.n_vertices g in
  let dist = Array.make n nan and parent = Array.make n min_int in
  Dijkstra.shortest_tree_snapshot_into (Dijkstra.create_workspace g) g
    ~snapshot:(Weight_snapshot.build g ~weight:(fun e -> w.(e)))
    ~src ~dist ~parent_edge:parent;
  match tree_violation g w ~src (dist, parent) with
  | Some msg -> Error msg
  | None -> Ok (dist, parent)

let check_oracle msg g w ~src =
  match oracle_tree g w ~src with
  | Ok tree -> tree
  | Error why -> Alcotest.failf "%s: %s" msg why

(* A random graph on 1..12 vertices, directed or not, whose edges may
   be parallel. *)
let small_graph rng ~capacity =
  let n = 1 + Rng.int rng 12 in
  let g = Graph.create ~directed:(Rng.bool rng) ~n in
  for _ = 1 to Rng.int rng ((3 * n) + 1) do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then ignore (Graph.add_edge g ~u ~v ~capacity:(capacity ()))
  done;
  g

(* A random graph and weight vector built to sit on float boundaries.
   [n] starts at 1, so the one-vertex graph is a regular case; edges
   may be parallel. Each weight is drawn from one class:
   - 0 and [infinity] (an edge priced out by a residual filter);
   - subnormals;
   - exact multiples [k*d] of a per-graph unit [d], and their
     [Float.pred]/[Float.succ] neighbours, where equal-distance ties
     and one-ulp rounding disagreements live;
   - [d * 10^j], spanning ratios up to 1e12;
   - the cap [max_float / n]: no path has more than n - 1 edges, so no
     path sum overflows to infinity and finiteness stays a pure
     reachability question. *)
let boundary_instance seed =
  let rng = Rng.create seed in
  let g = small_graph rng ~capacity:(fun () -> 1.0) in
  let n = Graph.n_vertices g in
  let d = Rng.float_in rng 0.5 2.0 in
  let multiple () =
    float_of_int (1 + Rng.int rng (if Rng.bool rng then 4 else 1000)) *. d
  in
  let w =
    Array.init (Graph.n_edges g) (fun _ ->
        match Rng.int rng 8 with
        | 0 -> 0.0
        | 1 -> infinity
        | 2 -> Float.ldexp (float_of_int (1 + Rng.int rng 1024)) (-1074)
        | 3 -> multiple ()
        | 4 -> Float.pred (multiple ())
        | 5 -> Float.succ (multiple ())
        | 6 -> d *. (10.0 ** float_of_int (Rng.int rng 13))
        | _ -> Float.max_float /. float_of_int n)
  in
  (g, w, Rng.int rng n)

let qcheck_dijkstra_oracle =
  QCheck.Test.make ~name:"dijkstra tree on boundary weights" ~count:300
    (QCheck.int_bound 0x3FFFFFFF) (fun seed ->
      let g, w, src = boundary_instance seed in
      match oracle_tree g w ~src with
      | Ok _ -> true
      | Error why ->
        QCheck.Test.fail_reportf "n = %d, m = %d, src = %d: %s"
          (Graph.n_vertices g) (Graph.n_edges g) src why)

(* Dinic checked by a certificate instead of a second solver: the flow
   is valid, a BFS over the residual arcs the flow implies (a directed
   edge leaves c - f forward and f backward, an undirected one c - f
   and c + f) never reaches [dst], and [value] equals the capacity of
   the cut around what it reaches — max-flow min-cut, with the cut as
   the proof that no larger flow exists. Capacities are small integers
   or fractions, so blocking flows tie and split. *)
let qcheck_maxflow_min_cut =
  QCheck.Test.make ~name:"dinic flow has a min-cut certificate" ~count:300
    (QCheck.int_bound 0x3FFFFFFF) (fun seed ->
      let rng = Rng.create seed in
      let capacity () =
        if Rng.bool rng then float_of_int (1 + Rng.int rng 8)
        else Rng.float_in rng 0.25 8.0
      in
      let g = small_graph rng ~capacity in
      let n = Graph.n_vertices g in
      if n < 2 then true
      else begin
        let src = Rng.int rng n in
        let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
        let r = Maxflow.max_flow g ~src ~dst in
        check_flow_valid g r ~src ~dst;
        let cut, reached = residual_cut_capacity g r ~src in
        if reached.(dst) then
          QCheck.Test.fail_reportf
            "%d -> %d: the residual graph still reaches %d" src dst dst;
        if
          not
            (Float_tol.approx_eq ~eps:Float_tol.loose_check_eps cut
               r.Maxflow.value)
        then
          QCheck.Test.fail_reportf "%d -> %d: value %h, residual cut %h" src
            dst r.Maxflow.value cut;
        true
      end)

let line_graph weights =
  let g = Graph.create ~directed:true ~n:(Array.length weights + 1) in
  Array.iteri
    (fun i _ -> ignore (Graph.add_edge g ~u:i ~v:(i + 1) ~capacity:1.0))
    weights;
  g

(* 536.1837079465389 is fl(743 * 0.72164698243141179): the bucket index
   [w /. d] rounds to 742 while the bucket's own range test rejects the
   value, which made a bucketed kernel drop vertex 1 (and with it 3).
   Dijkstra must reach both. *)
let test_oracle_bucket_boundary () =
  let g = Graph.create ~directed:true ~n:4 in
  let e01 = Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0 in
  let e02 = Graph.add_edge g ~u:0 ~v:2 ~capacity:1.0 in
  let e13 = Graph.add_edge g ~u:1 ~v:3 ~capacity:1.0 in
  let w = Array.make 3 0.0 in
  w.(e01) <- 536.1837079465389;
  w.(e02) <- 0.72164698243141179;
  w.(e13) <- 1.0;
  let dist, _ = check_oracle "bucket boundary" g w ~src:0 in
  Alcotest.(check bool) "v1" true (same_bits dist.(1) 536.1837079465389);
  Alcotest.(check bool) "v3" true (same_bits dist.(3) 537.1837079465389)

let test_oracle_zero_weight_chain () =
  let w = [| 0.0; 0.0; 1.0; 0.0 |] in
  let dist, _ = check_oracle "zero-weight chain" (line_graph w) w ~src:0 in
  Alcotest.(check (float 0.0)) "dist through zeros" 1.0 dist.(4)

let test_oracle_unreachable_component () =
  let g = Graph.create ~directed:true ~n:5 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0);
  ignore (Graph.add_edge g ~u:3 ~v:4 ~capacity:1.0);
  let dist, parent =
    check_oracle "unreachable component" g [| 1.0; 1.0 |] ~src:0
  in
  Alcotest.(check bool) "2 unreachable" true (Float.equal dist.(2) infinity);
  Alcotest.(check bool) "4 unreachable" true (Float.equal dist.(4) infinity);
  Alcotest.(check int) "no parent at 4" (-1) parent.(4)

let test_oracle_infinite_weight_cut () =
  let w = [| 1.0; infinity; 1.0 |] in
  let dist, _ = check_oracle "infinite cut" (line_graph w) w ~src:0 in
  Alcotest.(check bool) "beyond the cut" true (Float.equal dist.(2) infinity)

let test_oracle_single_vertex () =
  let g = Graph.create ~directed:false ~n:1 in
  let dist, parent = check_oracle "single vertex" g [||] ~src:0 in
  Alcotest.(check (float 0.0)) "src dist" 0.0 dist.(0);
  Alcotest.(check int) "src parent" (-1) parent.(0)

(* --- Weight snapshot patches --- *)

let test_snapshot_patch_validation () =
  let g = Graph.create ~directed:true ~n:4 in
  for u = 0 to 2 do
    ignore (Graph.add_edge g ~u ~v:(u + 1) ~capacity:1.0)
  done;
  let w = [| 1.0; 2.0; 3.0 |] in
  let s = Weight_snapshot.build g ~weight:(fun e -> w.(e)) in
  w.(2) <- -1.0;
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Weight_snapshot: negative weight on edge 2") (fun () ->
      Weight_snapshot.patch s ~weight:(fun e -> w.(e)) [ 2 ]);
  w.(2) <- 3.0;
  w.(1) <- nan;
  Alcotest.check_raises "nan weight"
    (Invalid_argument "Weight_snapshot: NaN weight on edge 1") (fun () ->
      Weight_snapshot.patch s ~weight:(fun e -> w.(e)) [ 0; 1 ]);
  (* The listed edges are re-read, and only they: edge 2 still holds
     the weight it was built with, infinity is legal. *)
  w.(1) <- infinity;
  w.(2) <- 7.0;
  Weight_snapshot.patch s ~weight:(fun e -> w.(e)) [ 1 ];
  Alcotest.(check bool) "edge 1 infinite" true
    (Float.equal (Weight_snapshot.get s 1) infinity);
  check_float "edge 2 unpatched" 3.0 (Weight_snapshot.get s 2)

(* The patch law: grow random edge subsets — by small steps, by
   factors, to infinity — announce each subset through [patch] (in
   random order, with repeats), and after every step the patched
   snapshot must be bitwise equal to a fresh [build]. *)
let qcheck_snapshot_patch_matches_build =
  QCheck.Test.make ~name:"patched snapshot equals a fresh build" ~count:300
    (QCheck.int_bound 0x3FFFFFFF) (fun seed ->
      let rng = Rng.create seed in
      let g = small_graph rng ~capacity:(fun () -> 1.0) in
      let m = Graph.n_edges g in
      let w = Array.init m (fun _ -> Rng.float_in rng 0.0 4.0) in
      let weight e = w.(e) in
      let s = Weight_snapshot.build g ~weight in
      for step = 1 to 1 + Rng.int rng 12 do
        let edges =
          List.filter (fun _ -> Rng.int rng 3 = 0) (List.init m Fun.id)
        in
        let edges = if Rng.bool rng then edges @ edges else List.rev edges in
        List.iter
          (fun e ->
            match Rng.int rng 6 with
            | 0 -> w.(e) <- infinity
            | 1 -> w.(e) <- w.(e) *. Rng.float_in rng 1.0 3.0
            | 2 -> w.(e) <- Float.succ w.(e)
            | _ -> w.(e) <- w.(e) +. Rng.float_in rng 0.0 2.0)
          edges;
        Weight_snapshot.patch s ~weight edges;
        let fresh = Weight_snapshot.build g ~weight in
        for e = 0 to m - 1 do
          let got = Weight_snapshot.get s e
          and want = Weight_snapshot.get fresh e in
          if not (same_bits got want) then
            QCheck.Test.fail_reportf "step %d, edge %d: patched %h, fresh %h"
              step e got want
        done
      done;
      true)

(* Minor-heap words [f ()] allocates. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The relaxation loop allocates nothing: a second tree on a warmed
   workspace over a 40x40 grid costs zero minor words (no boxed weight
   reads, no option per heap pop, no boxed key per push). *)
let test_dijkstra_allocation_free () =
  let g = Gen.grid ~rows:40 ~cols:40 ~capacity:1.0 in
  let n = Graph.n_vertices g in
  let snapshot =
    Weight_snapshot.build g ~weight:(fun e -> float_of_int (1 + (e mod 7)))
  in
  let ws = Dijkstra.create_workspace g in
  let dist = Array.make n infinity and parent_edge = Array.make n (-1) in
  let tree () =
    Dijkstra.shortest_tree_snapshot_into ws g ~snapshot ~src:0 ~dist
      ~parent_edge
  in
  tree ();
  Alcotest.(check (float 0.0)) "minor words" 0.0 (minor_words_of tree)

let () =
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "create negative" `Quick test_create_negative;
          Alcotest.test_case "add_edge validation" `Quick test_add_edge_validation;
          Alcotest.test_case "accessors" `Quick test_basic_accessors;
          Alcotest.test_case "min_capacity empty" `Quick test_min_capacity_empty;
          Alcotest.test_case "out_edges directed" `Quick test_out_edges_directed;
          Alcotest.test_case "out_edges undirected" `Quick test_out_edges_undirected;
          Alcotest.test_case "out_edges insertion order" `Quick
            test_out_edges_insertion_order;
          Alcotest.test_case "csr pinned rows" `Quick test_csr_pinned_rows;
          Alcotest.test_case "csr undirected rows" `Quick
            test_csr_undirected_both_rows;
          Alcotest.test_case "csr cached + invalidated" `Quick
            test_csr_cached_and_invalidated;
          Alcotest.test_case "fold order" `Quick test_fold_edges_order;
          Alcotest.test_case "other endpoint" `Quick test_other_endpoint;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
          Alcotest.test_case "out_edges hub degree 500k" `Quick
            test_out_edges_hub_degree;
          Alcotest.test_case "of_edge_stream matches add_edge" `Quick
            test_of_edge_stream_matches_add_edge;
          Alcotest.test_case "of_edge_stream empty" `Quick
            test_of_edge_stream_empty;
          Alcotest.test_case "of_edge_stream validation" `Quick
            test_of_edge_stream_validation;
          Alcotest.test_case "csr packed bound" `Quick test_csr_packed_bound;
          Alcotest.test_case "rescale shares adjacency" `Quick
            test_rescale_shares_adjacency;
          Alcotest.test_case "rescale add_edge detaches" `Quick
            test_rescale_add_edge_detaches;
          Alcotest.test_case "rescale validation" `Quick test_rescale_validation;
          QCheck_alcotest.to_alcotest qcheck_column_store;
          Alcotest.test_case "loaded graph words per edge" `Quick
            test_loaded_graph_words;
          Alcotest.test_case "load streams one csr build" `Quick
            test_load_streams_one_build;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "diamond shortest" `Quick test_dijkstra_diamond;
          Alcotest.test_case "direct when cheap" `Quick test_dijkstra_direct_when_cheap;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "orientation" `Quick
            test_dijkstra_directed_respects_orientation;
          Alcotest.test_case "negative raises" `Quick test_dijkstra_negative_raises;
          Alcotest.test_case "nan raises" `Quick test_dijkstra_nan_raises;
          Alcotest.test_case "weight snapshot" `Quick test_snapshot_build_and_get;
          Alcotest.test_case "snapshot patch validation" `Quick
            test_snapshot_patch_validation;
          Alcotest.test_case "warmed tree allocates nothing" `Quick
            test_dijkstra_allocation_free;
          Alcotest.test_case "src = dst" `Quick test_dijkstra_src_eq_dst;
          Alcotest.test_case "path_of_tree disconnected" `Quick
            test_dijkstra_path_of_tree_disconnected;
          Alcotest.test_case "tie break deterministic" `Quick
            test_dijkstra_tie_break_deterministic;
          Alcotest.test_case "grid distances" `Quick test_dijkstra_tree_distances;
          Alcotest.test_case "undirected both ways" `Quick
            test_dijkstra_undirected_both_ways;
          Alcotest.test_case "reachable" `Quick test_reachable;
        ] );
      ( "path",
        [
          Alcotest.test_case "vertices" `Quick test_path_vertices;
          Alcotest.test_case "orientation" `Quick test_path_vertices_orientation;
          Alcotest.test_case "undirected traversal" `Quick
            test_path_vertices_undirected;
          Alcotest.test_case "is_valid" `Quick test_path_is_valid;
          Alcotest.test_case "simple only" `Quick test_path_simple_only;
          Alcotest.test_case "length and bottleneck" `Quick
            test_path_length_bottleneck;
          Alcotest.test_case "pp" `Quick test_path_pp;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "diamond" `Quick test_enumerate_diamond;
          Alcotest.test_case "src = dst" `Quick test_enumerate_src_eq_dst;
          Alcotest.test_case "max paths" `Quick test_enumerate_max_paths;
          Alcotest.test_case "gadget count" `Quick test_enumerate_gadget_count;
          Alcotest.test_case "no path" `Quick test_enumerate_none;
        ] );
      ( "generators",
        [
          Alcotest.test_case "staircase" `Quick test_staircase_structure;
          Alcotest.test_case "staircase invalid" `Quick test_staircase_invalid;
          Alcotest.test_case "stretched staircase" `Quick test_stretched_staircase;
          Alcotest.test_case "gadget7" `Quick test_gadget7_structure;
          Alcotest.test_case "grid" `Quick test_grid_structure;
          Alcotest.test_case "layered" `Quick test_layered_structure;
          Alcotest.test_case "erdos-renyi deterministic" `Quick
            test_erdos_renyi_deterministic;
          Alcotest.test_case "edge_prob validation" `Quick
            test_edge_prob_validation;
          Alcotest.test_case "rmat deterministic" `Quick test_rmat_deterministic;
          Alcotest.test_case "rmat degree sum" `Quick test_rmat_degree_sum;
          Alcotest.test_case "rmat validation" `Quick test_rmat_validation;
          Alcotest.test_case "ring" `Quick test_ring_structure;
          Alcotest.test_case "abilene" `Quick test_abilene_structure;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "diamond" `Quick test_maxflow_diamond;
          Alcotest.test_case "orientation" `Quick test_maxflow_respects_orientation;
          Alcotest.test_case "undirected ring" `Quick test_maxflow_undirected_ring;
          Alcotest.test_case "grid" `Quick test_maxflow_grid;
          Alcotest.test_case "unreachable" `Quick test_maxflow_unreachable;
          Alcotest.test_case "validation" `Quick test_maxflow_validation;
          Alcotest.test_case "multi staircase" `Quick test_maxflow_multi_staircase;
          Alcotest.test_case "multi validation" `Quick test_maxflow_multi_validation;
        ] );
      ( "packed",
        [
          Alcotest.test_case "pack rejects oversized" `Quick
            test_pack_rejects_oversized;
          Alcotest.test_case "pack rejects negative" `Quick
            test_pack_rejects_negative;
          Alcotest.test_case "pack boundary roundtrip" `Quick
            test_pack_roundtrip_boundary;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest qcheck_dijkstra_oracle;
          QCheck_alcotest.to_alcotest qcheck_maxflow_min_cut;
          Alcotest.test_case "bucket boundary" `Quick test_oracle_bucket_boundary;
          Alcotest.test_case "zero-weight chain" `Quick
            test_oracle_zero_weight_chain;
          Alcotest.test_case "unreachable component" `Quick
            test_oracle_unreachable_component;
          Alcotest.test_case "infinite weight cut" `Quick
            test_oracle_infinite_weight_cut;
          Alcotest.test_case "single vertex" `Quick test_oracle_single_vertex;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_dijkstra_path_length;
            qcheck_dijkstra_optimal_vs_enumeration;
            qcheck_workspace_matches_allocating;
            qcheck_snapshot_patch_matches_build;
            qcheck_enumerate_simple;
            qcheck_maxflow_bounded_by_cut;
            qcheck_maxflow_equals_mincut;
          ] );
    ]
