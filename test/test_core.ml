(* Tests for Ufp_core: bounded_ufp, bounded_ufp_repeat, reasonable,
   baselines. *)

module Graph = Ufp_graph.Graph
module Gen = Ufp_graph.Generators
module Request = Ufp_instance.Request
module Instance = Ufp_instance.Instance
module Solution = Ufp_instance.Solution
module Workloads = Ufp_instance.Workloads
module Bounded_ufp = Ufp_core.Bounded_ufp
module Repeat = Ufp_core.Bounded_ufp_repeat
module Reasonable = Ufp_core.Reasonable
module Baselines = Ufp_core.Baselines
module Exact = Ufp_lp.Exact
module Duality = Ufp_lp.Duality
module Rng = Ufp_prelude.Rng
module Float_tol = Ufp_prelude.Float_tol

let check_float = Alcotest.(check (float Float_tol.check_eps))

let line_graph caps =
  let n = Array.length caps + 1 in
  let g = Graph.create ~directed:true ~n in
  Array.iteri (fun i c -> ignore (Graph.add_edge g ~u:i ~v:(i + 1) ~capacity:c)) caps;
  g

(* A well-capacitated instance meeting the Theorem 3.1 premise: grid
   with B = capacity and unit-bounded demands. *)
let grid_instance ?(rows = 4) ?(cols = 4) ?(capacity = 30.0) ?(count = 40) seed =
  let rng = Rng.create seed in
  let g = Gen.grid ~rows ~cols ~capacity in
  let reqs = Workloads.random_requests rng g ~count () in
  Instance.create g reqs

(* --- Bounded_ufp: validation --- *)

let test_bufp_eps_validation () =
  let inst = grid_instance 1 in
  Alcotest.check_raises "eps" (Invalid_argument "Bounded_ufp: eps must be in (0, 1]")
    (fun () -> ignore (Bounded_ufp.run ~eps:0.0 inst))

let test_bufp_requires_requests () =
  let g = line_graph [| 2.0 |] in
  let inst = Instance.create g [||] in
  Alcotest.check_raises "no requests" (Invalid_argument "Bounded_ufp: no requests")
    (fun () -> ignore (Bounded_ufp.run inst))

let test_bufp_requires_normalized () =
  let g = line_graph [| 9.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:2.0 ~value:1.0 |]
  in
  Alcotest.check_raises "demand > 1"
    (Invalid_argument "Bounded_ufp: instance must be normalised (demands in (0,1])")
    (fun () -> ignore (Bounded_ufp.run inst))

let test_bufp_requires_b_ge_1 () =
  let g = line_graph [| 0.5 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:0.5 ~value:1.0 |]
  in
  Alcotest.check_raises "B < 1"
    (Invalid_argument "Bounded_ufp: requires B = min capacity >= 1") (fun () ->
      ignore (Bounded_ufp.run inst))

(* --- Bounded_ufp: behaviour --- *)

let test_bufp_feasible_many_seeds () =
  for seed = 1 to 10 do
    let inst = grid_instance ~capacity:10.0 ~count:80 seed in
    let sol = Bounded_ufp.solve ~eps:0.3 inst in
    Alcotest.(check bool)
      (Printf.sprintf "feasible seed %d" seed)
      true
      (Solution.is_feasible inst sol)
  done

let test_bufp_allocates_all_when_ample () =
  let inst = grid_instance ~capacity:100.0 ~count:30 3 in
  let run = Bounded_ufp.run ~eps:0.2 inst in
  Alcotest.(check int) "all requests" 30 (List.length run.Bounded_ufp.solution);
  Alcotest.(check bool) "not budget bound" false run.Bounded_ufp.budget_exhausted;
  check_float "certified bound equals value" (Instance.total_value inst)
    run.Bounded_ufp.certified_upper_bound

let test_bufp_respects_capacity_tight () =
  (* Single edge of capacity 2, five unit requests: at most 2 routed. *)
  let g = line_graph [| 2.0 |] in
  let inst =
    Instance.create g
      (Array.init 5 (fun i ->
           Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:(1.0 +. float_of_int i)))
  in
  let sol = Bounded_ufp.solve ~eps:0.5 inst in
  Alcotest.(check bool) "feasible" true (Solution.is_feasible inst sol);
  Alcotest.(check bool) "at most 2" true (List.length sol <= 2)

let test_bufp_prefers_value_density () =
  (* Two requests on one capacity-1 edge; only one fits. The one with
     the smaller d/v (higher value) has the shorter normalised path. *)
  let g = line_graph [| 1.0 |] in
  let inst =
    Instance.create g
      [|
        Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0;
        Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:10.0;
      |]
  in
  let sol = Bounded_ufp.solve ~eps:0.5 inst in
  Alcotest.(check (list int)) "picks the valuable request" [ 1 ]
    (Solution.selected sol)

let test_bufp_certified_bound_dominates_exact () =
  for seed = 1 to 6 do
    let inst = grid_instance ~rows:3 ~cols:3 ~capacity:8.0 ~count:6 seed in
    let opt = Exact.opt_value inst in
    let run = Bounded_ufp.run ~eps:0.4 inst in
    Alcotest.(check bool)
      (Printf.sprintf "bound >= OPT seed %d" seed)
      true
      (run.Bounded_ufp.certified_upper_bound >= opt -. Float_tol.loose_check_eps)
  done

let test_bufp_trace_consistent () =
  let inst = grid_instance ~capacity:20.0 ~count:25 9 in
  let run = Bounded_ufp.run ~eps:0.2 inst in
  Alcotest.(check int) "iterations match trace"
    (List.length run.Bounded_ufp.trace)
    run.Bounded_ufp.iterations;
  (* alpha(i) is nondecreasing: duals only grow and the candidate set
     only shrinks (Claim 3.5's premise). *)
  let rec alphas_nondecreasing prev = function
    | [] -> true
    | (e : Bounded_ufp.trace_entry) :: rest ->
      e.Bounded_ufp.alpha >= prev -. Float_tol.check_eps
      && alphas_nondecreasing e.Bounded_ufp.alpha rest
  in
  Alcotest.(check bool) "alphas nondecreasing" true
    (alphas_nondecreasing 0.0 run.Bounded_ufp.trace);
  (* d1 in the last trace entry equals the final dual objective. *)
  (match List.rev run.Bounded_ufp.trace with
  | last :: _ ->
    let g = Instance.graph inst in
    let recomputed =
      Graph.fold_edges
        (fun e acc -> acc +. (e.Graph.capacity *. run.Bounded_ufp.final_y.(e.Graph.id)))
        g 0.0
    in
    Alcotest.(check (float Float_tol.loose_check_eps)) "d1 tracks duals" recomputed last.Bounded_ufp.d1
  | [] -> Alcotest.fail "expected nonempty trace");
  (* z_r = v_r exactly for selected requests, 0 otherwise (line 12). *)
  let selected = Solution.selected run.Bounded_ufp.solution in
  Array.iteri
    (fun i z ->
      if List.mem i selected then
        check_float "z = v for winners" (Instance.request inst i).Request.value z
      else check_float "z = 0 for losers" 0.0 z)
    run.Bounded_ufp.final_z

let test_bufp_final_duals_growth () =
  (* Every final dual y_e is at least its initial value 1/c_e. *)
  let inst = grid_instance ~capacity:15.0 ~count:30 11 in
  let g = Instance.graph inst in
  let run = Bounded_ufp.run ~eps:0.3 inst in
  Array.iteri
    (fun e y ->
      Alcotest.(check bool) "y grew" true (y >= (1.0 /. Graph.capacity g e) -. Float_tol.tight_eps))
    run.Bounded_ufp.final_y

let test_bufp_deterministic () =
  let a = Bounded_ufp.run (grid_instance 13) and b = Bounded_ufp.run (grid_instance 13) in
  Alcotest.(check (list int)) "same selection"
    (Solution.selected a.Bounded_ufp.solution)
    (Solution.selected b.Bounded_ufp.solution)

let test_bufp_budget () =
  check_float "budget formula" (exp 0.5) (Bounded_ufp.budget ~eps:0.1 ~b:6.0);
  Alcotest.(check bool) "theorem ratio > e/(e-1)" true
    (Bounded_ufp.theorem_ratio ~eps:0.1 > 1.58)

let test_bufp_stops_on_budget () =
  (* Tiny capacity relative to ln m: budget is immediately exceeded. *)
  let g = Gen.grid ~rows:5 ~cols:5 ~capacity:2.0 in
  let rng = Rng.create 4 in
  let reqs = Workloads.random_requests rng g ~count:10 () in
  let inst = Instance.create g reqs in
  let run = Bounded_ufp.run ~eps:0.1 inst in
  Alcotest.(check bool) "budget exhausted" true run.Bounded_ufp.budget_exhausted;
  Alcotest.(check int) "no iterations" 0 run.Bounded_ufp.iterations

let test_bufp_unroutable_requests_skipped () =
  let g = Graph.create ~directed:true ~n:4 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:5.0);
  (* Vertex 2 -> 3 disconnected. *)
  ignore (Graph.add_edge g ~u:3 ~v:2 ~capacity:5.0);
  let inst =
    Instance.create g
      [|
        Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0;
        Request.make ~src:2 ~dst:3 ~demand:1.0 ~value:50.0;
      |]
  in
  let run = Bounded_ufp.run ~eps:0.5 inst in
  Alcotest.(check (list int)) "only routable allocated" [ 0 ]
    (Solution.selected run.Bounded_ufp.solution)

(* Monotonicity, directly on the algorithm (Lemma 3.4). *)
let test_bufp_monotone_manual () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:10.0 ~count:10 17 in
  let run = Bounded_ufp.run ~eps:0.3 inst in
  match Solution.selected run.Bounded_ufp.solution with
  | [] -> Alcotest.fail "expected at least one winner"
  | w :: _ ->
    let r = Instance.request inst w in
    let improved =
      Instance.with_request inst w
        (Request.with_type r ~demand:(r.Request.demand /. 2.0)
           ~value:(r.Request.value *. 3.0))
    in
    let run' = Bounded_ufp.run ~eps:0.3 improved in
    Alcotest.(check bool) "still selected" true
      (List.mem w (Solution.selected run'.Bounded_ufp.solution))

(* --- Bounded_ufp_repeat --- *)

let test_repeat_feasible () =
  for seed = 1 to 5 do
    let inst = grid_instance ~capacity:10.0 ~count:10 seed in
    let sol = Repeat.solve ~eps:0.3 inst in
    Alcotest.(check bool)
      (Printf.sprintf "feasible seed %d" seed)
      true
      (Solution.is_feasible ~repetitions:true inst sol)
  done

let test_repeat_repeats () =
  (* One request, capacity 8: repetitions fill the edge. *)
  let g = line_graph [| 8.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0 |]
  in
  let run = Repeat.run ~eps:0.3 inst in
  Alcotest.(check bool) "allocated more than once" true
    (List.length run.Repeat.solution > 1);
  Alcotest.(check bool) "feasible" true
    (Solution.is_feasible ~repetitions:true inst run.Repeat.solution)

let test_repeat_ratio_certificate () =
  (* Theorem 5.1 / Lemma 5.3: certified bound / value <= 1 + 6 eps when
     the bound premise holds. *)
  let eps = 0.3 in
  for seed = 1 to 5 do
    let inst = grid_instance ~rows:3 ~cols:3 ~capacity:30.0 ~count:8 seed in
    let run = Repeat.run ~eps inst in
    let v = Solution.value inst run.Repeat.solution in
    if v > 0.0 then
      Alcotest.(check bool)
        (Printf.sprintf "ratio within 1+6eps (seed %d)" seed)
        true
        (run.Repeat.certified_upper_bound /. v
        <= Repeat.theorem_ratio ~eps +. 0.05)
  done

let test_repeat_dual_certificate_valid () =
  (* The scaled final duals are feasible for the Figure 5 dual. *)
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:20.0 ~count:6 23 in
  let run = Repeat.run ~eps:0.3 inst in
  (* certified bound = min_i D(i)/alpha(i); verify it dominates the
     with-repetitions optimum of the only-request-0 sub-problem, a
     cheap sanity floor: value of the solution itself. *)
  let v = Solution.value inst run.Repeat.solution in
  Alcotest.(check bool) "bound >= achieved value" true
    (run.Repeat.certified_upper_bound >= v -. Float_tol.loose_check_eps)

let test_repeat_validation () =
  let g = line_graph [| 2.0 |] in
  let inst = Instance.create g [||] in
  Alcotest.check_raises "no requests"
    (Invalid_argument "Bounded_ufp_repeat: no requests") (fun () ->
      ignore (Repeat.run inst))

(* --- Reasonable --- *)

let test_reasonable_matches_bounded_ufp () =
  (* With ample capacity (no budget stop, no capacity binding) the
     h-minimizing simulator and Algorithm 1 select identically. *)
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:50.0 ~count:12 31 in
  let eps = 0.2 in
  let b = Graph.min_capacity (Instance.graph inst) in
  let direct = Bounded_ufp.solve ~eps inst in
  let sim =
    Reasonable.run ~priority:(Reasonable.h ~eps ~b)
      ~tie_break:Reasonable.first_candidate inst
  in
  Alcotest.(check (list int)) "same selection order"
    (Solution.selected direct)
    (Solution.selected sim.Reasonable.solution)

let test_reasonable_staircase_ratio () =
  let levels = 24 and b = 6 in
  let sc = Gen.staircase ~levels ~capacity:(float_of_int b) in
  let inst = Instance.create sc.Gen.graph (Workloads.staircase_requests sc ~per_source:b) in
  let res =
    Reasonable.run
      ~priority:(Reasonable.h ~eps:0.1 ~b:(float_of_int b))
      ~tie_break:Reasonable.prefer_max_second_vertex inst
  in
  Alcotest.(check bool) "feasible" true (Solution.is_feasible inst res.Reasonable.solution);
  let v = Solution.value inst res.Reasonable.solution in
  let opt = float_of_int (levels * b) in
  let predicted =
    1.0 -. ((float_of_int b /. float_of_int (b + 1)) ** float_of_int b)
  in
  (* Theorem 3.11 with the integrality correction of at most B^2. *)
  Alcotest.(check bool) "within correction of prediction" true
    (Float.abs (v -. (opt *. predicted)) <= float_of_int (b * b))

let test_reasonable_gadget_ratio () =
  List.iter
    (fun b ->
      let g = Gen.gadget7 ~capacity:(float_of_int b) in
      let inst = Instance.create g (Workloads.gadget7_requests ~per_pair:b) in
      let res =
        Reasonable.run
          ~priority:(Reasonable.h ~eps:0.1 ~b:(float_of_int b))
          ~tie_break:(Reasonable.prefer_hub Gen.Gadget7.v7)
          inst
      in
      let v = Solution.value inst res.Reasonable.solution in
      Alcotest.(check (float Float_tol.check_eps))
        (Printf.sprintf "3B of 4B for B=%d" b)
        (float_of_int (3 * b))
        v)
    [ 2; 4; 8 ]

let test_reasonable_gadget_optimal_exists () =
  (* Sanity: the instance does admit a 4B-value solution. *)
  let b = 4 in
  let g = Gen.gadget7 ~capacity:(float_of_int b) in
  let inst = Instance.create g (Workloads.gadget7_requests ~per_pair:b) in
  let opt = Exact.opt_value inst in
  check_float "optimum is 4B" (float_of_int (4 * b)) opt

let test_reasonable_priorities_run () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:4.0 ~count:8 41 in
  let b = 4.0 in
  List.iter
    (fun (name, priority) ->
      let res =
        Reasonable.run ~priority ~tie_break:Reasonable.first_candidate inst
      in
      Alcotest.(check bool) (name ^ " feasible") true
        (Solution.is_feasible inst res.Reasonable.solution))
    [
      ("h", Reasonable.h ~eps:0.1 ~b);
      ("h1", Reasonable.h1 ~eps:0.1 ~b);
      ("h2", Reasonable.h2);
      ("hops", Reasonable.hops);
    ]

let test_reasonable_saturates () =
  (* After the run, no pending request fits — check by recomputing. *)
  let g = line_graph [| 2.0 |] in
  let inst =
    Instance.create g
      (Array.init 4 (fun _ -> Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0))
  in
  let res =
    Reasonable.run ~priority:Reasonable.hops ~tie_break:Reasonable.first_candidate
      inst
  in
  Alcotest.(check int) "exactly capacity many" 2
    (List.length res.Reasonable.solution);
  Alcotest.(check bool) "saturated" true res.Reasonable.saturated

let test_reasonable_random_tie_deterministic () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:3.0 ~count:8 47 in
  let run () =
    Reasonable.run ~priority:Reasonable.hops
      ~tie_break:(Reasonable.random_tie ~seed:5)
      inst
  in
  Alcotest.(check (list int)) "same result"
    (Solution.selected (run ()).Reasonable.solution)
    (Solution.selected (run ()).Reasonable.solution)

(* --- Baselines --- *)

let test_greedy_feasible () =
  for seed = 1 to 5 do
    let inst = grid_instance ~capacity:3.0 ~count:20 seed in
    Alcotest.(check bool) "density greedy feasible" true
      (Solution.is_feasible inst (Baselines.greedy_by_density inst));
    Alcotest.(check bool) "value greedy feasible" true
      (Solution.is_feasible inst (Baselines.greedy_by_value inst))
  done

let test_greedy_order_matters () =
  (* Value greedy takes the big request; density greedy the small one. *)
  let g = line_graph [| 1.0 |] in
  let inst =
    Instance.create g
      [|
        Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:3.0;
        Request.make ~src:0 ~dst:1 ~demand:0.2 ~value:1.0;
      |]
  in
  let by_value = Baselines.greedy_by_value inst in
  Alcotest.(check bool) "value greedy takes request 0" true
    (Solution.mem by_value 0);
  let by_density = Baselines.greedy_by_density inst in
  (* Density of request 1 is 1/0.2 = 5 > 3. *)
  Alcotest.(check bool) "density greedy takes request 1 first" true
    (Solution.mem by_density 1)

let test_threshold_pd_feasible () =
  for seed = 1 to 5 do
    let inst = grid_instance ~capacity:10.0 ~count:30 seed in
    let sol = Baselines.threshold_pd ~eps:0.3 inst in
    Alcotest.(check bool) "feasible" true (Solution.is_feasible inst sol)
  done

let test_threshold_pd_accepts_cheap () =
  let g = line_graph [| 4.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:2.0 |]
  in
  (* Initial normalised length = (1/2) * (1/4) = 0.125 <= 1: accepted. *)
  let sol = Baselines.threshold_pd ~eps:0.2 inst in
  Alcotest.(check (list int)) "accepted" [ 0 ] (Solution.selected sol)

let test_threshold_pd_rejects_expensive () =
  let g = line_graph [| 1.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:0.5 |]
  in
  (* Initial normalised length = 2 * 1 = 2 > 1: rejected. *)
  let sol = Baselines.threshold_pd ~eps:0.2 inst in
  Alcotest.(check (list int)) "rejected" [] (Solution.selected sol)

let test_randomized_rounding_feasible () =
  for seed = 1 to 5 do
    let inst = grid_instance ~capacity:5.0 ~count:20 seed in
    let sol = Baselines.randomized_rounding ~seed:(seed * 7) inst in
    Alcotest.(check bool) "feasible" true (Solution.is_feasible inst sol)
  done

let test_randomized_rounding_deterministic () =
  let inst = grid_instance ~capacity:5.0 ~count:15 8 in
  let a = Baselines.randomized_rounding ~seed:3 inst in
  let b = Baselines.randomized_rounding ~seed:3 inst in
  Alcotest.(check (list int)) "same seed same result" (Solution.selected a)
    (Solution.selected b)

(* --- Online --- *)

module Online = Ufp_core.Online

let test_online_feasible () =
  for seed = 1 to 6 do
    let inst = grid_instance ~capacity:10.0 ~count:60 seed in
    let run = Online.route ~eps:0.3 inst in
    Alcotest.(check bool)
      (Printf.sprintf "feasible seed %d" seed)
      true
      (Solution.is_feasible inst run.Online.solution);
    Alcotest.(check int) "one log entry per request"
      (Instance.n_requests inst)
      (List.length run.Online.log)
  done

let test_online_log_consistent () =
  let inst = grid_instance ~capacity:12.0 ~count:40 3 in
  let run = Online.route ~eps:0.3 inst in
  let accepted = Solution.selected run.Online.solution in
  List.iter
    (fun (e : Online.event) ->
      if e.Online.accepted then begin
        Alcotest.(check bool) "accepted implies cost <= 1" true (e.Online.cost <= 1.0);
        Alcotest.(check bool) "accepted in solution" true
          (List.mem e.Online.request accepted)
      end
      else
        Alcotest.(check bool) "rejected implies cost > 1 or unreachable" true
          (e.Online.cost > 1.0 || e.Online.cost = infinity))
    run.Online.log

let test_online_order_matters_but_feasible () =
  let inst = grid_instance ~capacity:10.0 ~count:50 5 in
  let n = Instance.n_requests inst in
  let forward = Online.solve ~eps:0.3 inst in
  let backward =
    Online.solve ~eps:0.3 ~order:(Array.init n (fun i -> n - 1 - i)) inst
  in
  Alcotest.(check bool) "both feasible" true
    (Solution.is_feasible inst forward && Solution.is_feasible inst backward)

let test_online_order_validation () =
  let inst = grid_instance ~capacity:10.0 ~count:5 7 in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Online.route: order must be a permutation") (fun () ->
      ignore (Online.route ~order:[| 0; 1 |] inst));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Online.route: order must be a permutation") (fun () ->
      ignore (Online.route ~order:[| 0; 0; 1; 2; 3 |] inst))

let test_online_below_offline_total () =
  let inst = grid_instance ~capacity:12.0 ~count:80 9 in
  let online = Solution.value inst (Online.solve ~eps:0.3 inst) in
  Alcotest.(check bool) "bounded by total value" true
    (online <= Instance.total_value inst +. Float_tol.check_eps)

let test_online_monotone_for_fixed_order () =
  (* A winner that improves its type keeps winning under the same
     arrival order — online truthfulness. *)
  let inst = grid_instance ~capacity:12.0 ~count:30 11 in
  let run = Online.route ~eps:0.3 inst in
  match Solution.selected run.Online.solution with
  | [] -> Alcotest.fail "expected at least one accepted request"
  | w :: _ ->
    let r = Instance.request inst w in
    let improved =
      Instance.with_request inst w
        (Request.with_type r ~demand:(r.Request.demand /. 2.0)
           ~value:(r.Request.value *. 2.0))
    in
    Alcotest.(check bool) "still accepted" true
      (List.mem w (Solution.selected (Online.solve ~eps:0.3 improved)))

let test_online_rejects_worthless () =
  (* A request whose value is far below its path cost is rejected. *)
  let g = line_graph [| 4.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:0.01 |]
  in
  Alcotest.(check (list int)) "rejected" []
    (Solution.selected (Online.solve ~eps:0.5 inst))

(* --- Pd_engine: differential testing against a literal transcription --- *)

module Pd_engine = Ufp_core.Pd_engine
module Dijkstra = Ufp_graph.Dijkstra

(* The primal-dual loop written out as on the page, sharing nothing
   with the engine but the graph: each iteration runs a fresh
   Dijkstra.shortest_path for every pending request and never touches
   Selector. [update] maps eps*B*d/c to the dual inflation, so
   [update = exp] is Algorithm 1 with its exp(eps(B-1)) budget.
   [repeat] keeps selected requests pending (Algorithm 3).
   [threshold] filters edges by residual capacity and, instead of the
   budget, stops at the first minimum alpha above 1 (the BKV-style
   rule). Returns the (request, path, alpha, d1 after the update)
   sequence and the final duals. *)
let pd_oracle ?(repeat = false) ?(threshold = false) ~eps ~update inst =
  let g = Instance.graph inst in
  let b = Graph.min_capacity g in
  let m = Graph.n_edges g in
  let budget = exp (eps *. (b -. 1.0)) in
  let y = Array.init m (fun e -> 1.0 /. Graph.capacity g e) in
  let residual = Array.init m (fun e -> Graph.capacity g e) in
  let d1 = ref (float_of_int m) in
  let pending = ref (List.init (Instance.n_requests inst) Fun.id) in
  let trace = ref [] in
  let continue = ref true in
  while !continue do
    if !pending = [] || ((not threshold) && !d1 > budget) then
      continue := false
    else begin
      let best = ref None in
      List.iter
        (fun i ->
          let r = Instance.request inst i in
          let weight e =
            if
              threshold
              && residual.(e) +. Pd_engine.capacity_slack < r.Request.demand
            then infinity
            else y.(e)
          in
          match
            Dijkstra.shortest_path g ~weight ~src:r.Request.src
              ~dst:r.Request.dst
          with
          | Some (dist, path) when dist < infinity -> (
            let alpha = Request.density r *. dist in
            match !best with
            | Some (a, _, _) when a <= alpha -> ()
            | _ -> best := Some (alpha, i, path))
          | Some _ | None -> ())
        !pending;
      match !best with
      | Some (alpha, i, path) when (not threshold) || alpha <= 1.0 ->
        let r = Instance.request inst i in
        List.iter
          (fun e ->
            let c = Graph.capacity g e in
            let old = y.(e) in
            y.(e) <- old *. update (eps *. b *. r.Request.demand /. c);
            residual.(e) <- residual.(e) -. r.Request.demand;
            d1 := !d1 +. (c *. (y.(e) -. old)))
          path;
        if not repeat then pending := List.filter (fun j -> j <> i) !pending;
        trace := (i, path, alpha, !d1) :: !trace
      | Some _ | None -> continue := false
    end
  done;
  (List.rev !trace, y)

let oracle_allocations trace =
  List.map (fun (i, path, _, _) -> { Solution.request = i; path }) trace

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* The oracle's step tuples against an engine trace, floats bitwise. *)
let same_steps oracle (trace : Pd_engine.trace_entry list) =
  List.equal
    (fun (i, path, alpha, d1) (i', path', alpha', d1') ->
      i = i' && path = path' && same_bits alpha alpha' && same_bits d1 d1')
    oracle
    (List.map
       (fun (t : Pd_engine.trace_entry) -> (t.selected, t.path, t.alpha, t.d1))
       trace)

let check_same_duals what expected actual =
  Alcotest.(check bool) what true (Array.for_all2 same_bits expected actual)

let test_engine_reproduces_bounded_ufp () =
  (* Bounded_ufp.run (the engine with Algorithm 1's parameters) must
     make decision-for-decision the oracle's run, bit for bit: an
     independent implementation agreeing on every seed is strong
     evidence both are the algorithm on the page. *)
  for seed = 1 to 8 do
    let inst = grid_instance ~rows:3 ~cols:3 ~capacity:14.0 ~count:25 seed in
    let eps = 0.3 in
    let run = Bounded_ufp.run ~eps inst in
    let trace, y = pd_oracle ~eps ~update:exp inst in
    Alcotest.(check bool)
      (Printf.sprintf "same (request, path, alpha, d1) seed %d" seed)
      true
      (same_steps trace run.Bounded_ufp.trace);
    Alcotest.(check int) "same iterations" (List.length trace)
      run.Bounded_ufp.iterations;
    check_same_duals "same final duals" y run.Bounded_ufp.final_y
  done

let test_engine_reproduces_repeat () =
  for seed = 1 to 4 do
    let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:6 seed in
    let eps = 0.3 in
    let run = Repeat.run ~eps inst in
    let trace, y =
      pd_oracle ~repeat:true ~eps ~update:exp inst
    in
    Alcotest.(check bool)
      (Printf.sprintf "same repeat allocations seed %d" seed)
      true
      (oracle_allocations trace = run.Repeat.solution);
    check_same_duals "same final duals" y run.Repeat.final_y
  done

let test_engine_reproduces_threshold_pd () =
  for seed = 1 to 5 do
    let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:15 seed in
    let trace, _ =
      pd_oracle ~threshold:true ~eps:0.3 ~update:exp inst
    in
    Alcotest.(check bool)
      (Printf.sprintf "same threshold allocations seed %d" seed)
      true
      (oracle_allocations trace = Baselines.threshold_pd ~eps:0.3 inst)
  done

(* The engine law: for every loop in the library (Algorithms 1 and 3,
   the threshold rule) and the first-order EXP-ABLATION update, the
   engine's (request, path, alpha, d1) sequence and final duals equal
   the oracle's bit for bit, sequentially and on a 2-domain pool.
   Instances are random grids plus the Figure 2 staircase and the
   Figure 3 gadget with their paper request sets, at capacities
   meeting B >= ln m / eps^2 (below it the budget can trip before the
   first iteration, and the law would compare two empty runs). Other
   kinds of grid:
   - B in 1..3: at large B the threshold rule stops on alpha > 1 long
     before an edge fills up, so only tight capacities exercise its
     residual filter;
   - 4x4 at capacity 20 with 5..30 requests and 3x3 at capacity 12
     with 10..15 requests: larger request pools than the other grid
     kinds, so selection runs are long and more cached trees go stale
     between selections;
   - B = 1 + ceil(ln m / eps) with 10..30 requests, where Algorithm 1's
     budget exp(eps (B-1)) >= m ends the loop after a few iterations
     with requests still pending. The staircase and the gadget stop
     there too, but the other grid kinds almost never do.
   [draw] picks the request count within each kind's range. *)
let law_instance (kind, seed, draw) eps =
  let premise m = Float.ceil (log (float_of_int m) /. (eps *. eps)) in
  let count lo hi = lo + (draw mod (hi - lo + 1)) in
  match kind with
  | 0 ->
    let levels = 2 + (seed mod 3) in
    let b = premise (levels + (levels * (levels + 1) / 2)) in
    let sc = Gen.staircase ~levels ~capacity:b in
    Instance.create sc.Gen.graph
      (Workloads.staircase_requests sc ~per_source:(int_of_float b))
  | 1 ->
    let b = premise 8 in
    Instance.create (Gen.gadget7 ~capacity:b)
      (Workloads.gadget7_requests ~per_pair:(int_of_float b))
  | 6 -> grid_instance ~rows:4 ~cols:4 ~capacity:20.0 ~count:(count 5 30) seed
  | 7 -> grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:(count 10 15) seed
  | _ ->
    let rows = 2 + (seed mod 3) and cols = 2 + (seed / 3 mod 3) in
    let m = (rows * (cols - 1)) + (cols * (rows - 1)) in
    let capacity, count =
      match kind with
      | 2 -> (float_of_int (1 + (seed mod 3)), count 2 12)
      | 8 -> (1.0 +. Float.ceil (log (float_of_int m) /. eps), count 10 30)
      | _ -> (premise m, count 2 12)
    in
    grid_instance ~rows ~cols ~capacity ~count seed

let qcheck_engine_matches_oracle pool =
  QCheck.Test.make ~count:300
    ~name:"engine matches the literal transcription bit for bit"
    QCheck.(
      pair
        (triple (int_range 0 8) (int_range 0 1000) (int_range 0 1000))
        (oneofl ~print:string_of_float [ 0.3; 0.5 ]))
    (fun (shape, eps) ->
      let inst = law_instance shape eps in
      let b = Graph.min_capacity (Instance.graph inst) in
      let first_order a = 1.0 +. a in
      List.for_all
        (fun (label, config, oracle) ->
          let trace, y = oracle () in
          List.for_all
            (fun (pool_label, pool) ->
              let run = Pd_engine.execute ~pool config inst in
              let same =
                same_steps trace run.Pd_engine.trace
                && Array.for_all2 same_bits y run.Pd_engine.final_y
              in
              if not same then
                QCheck.Test.fail_reportf "%s diverges from the oracle (%s)"
                  label pool_label;
              true)
            [ ("seq", `Seq); ("2-domain pool", pool) ])
        [
          ( "algorithm_1",
            Pd_engine.algorithm_1 ~eps ~b,
            fun () -> pd_oracle ~eps ~update:exp inst );
          ( "algorithm_3",
            Pd_engine.algorithm_3 ~eps ~b,
            fun () ->
              pd_oracle ~repeat:true ~eps ~update:exp inst );
          ( "threshold_rule",
            Pd_engine.threshold_rule ~eps ~b,
            fun () ->
              pd_oracle ~threshold:true ~eps ~update:exp inst
          );
          ( "1 + a ablation",
            {
              (Pd_engine.algorithm_1 ~eps ~b) with
              Pd_engine.inflation =
                (fun ~b ~demand ~capacity ->
                  first_order (eps *. b *. demand /. capacity));
            },
            fun () -> pd_oracle ~eps ~update:first_order inst
          );
        ])

let test_engine_matches_oracle () =
  Ufp_par.Pool.with_pool ~domains:2 (fun pool ->
      QCheck.Test.check_exn (qcheck_engine_matches_oracle pool))

let test_engine_validation () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:4 1 in
  Alcotest.check_raises "eps" (Invalid_argument "Pd_engine: eps must be in (0, 1]")
    (fun () ->
      ignore
        (Pd_engine.execute
           { (Pd_engine.algorithm_1 ~eps:0.3 ~b:12.0) with Pd_engine.eps = 0.0 }
           inst))

let test_engine_iteration_guard () =
  (* A repetitions config with an absurd budget would loop forever;
     the guard turns it into a clean failure. *)
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:3 2 in
  let config =
    {
      (Pd_engine.algorithm_3 ~eps:0.3 ~b:12.0) with
      Pd_engine.stop = Pd_engine.Budget infinity;
    }
  in
  match Pd_engine.execute ~max_iterations:50 config inst with
  | exception Pd_engine.Iteration_limit { iterations; d1; stop } ->
    Alcotest.(check int) "iterations carried" 51 iterations;
    Alcotest.(check bool) "d1 grew past its start" true
      (d1 > float_of_int (Ufp_graph.Graph.n_edges (Instance.graph inst)));
    (match stop with
    | Pd_engine.Budget b -> Alcotest.(check bool) "stop rule carried" true (b = infinity)
    | Pd_engine.Threshold _ -> Alcotest.fail "wrong stop rule in exception")
  | _ -> Alcotest.fail "expected the iteration guard to fire"

(* --- Selector --- *)

module Selector = Ufp_core.Selector

let test_selector_remove_is_idempotent () =
  (* Removing an already-removed request must not decrement the pending
     count a second time (the historical Pending.remove bug). *)
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:5 1 in
  let sel = Selector.create ~weights:(Selector.Uniform (fun _ -> 1.0)) inst in
  Alcotest.(check int) "all pending" 5 (Selector.n_pending sel);
  Selector.remove sel 2;
  Alcotest.(check int) "one removed" 4 (Selector.n_pending sel);
  Selector.remove sel 2;
  Selector.remove sel 2;
  Alcotest.(check int) "double remove is a no-op" 4 (Selector.n_pending sel);
  List.iter (Selector.remove sel) [ 0; 1; 3; 4 ];
  Alcotest.(check bool) "empty after removing all" true (Selector.is_empty sel);
  Selector.remove sel 0;
  Alcotest.(check int) "still zero, not negative" 0 (Selector.n_pending sel)

let test_selector_remove_out_of_range () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:3 1 in
  let sel = Selector.create ~weights:(Selector.Uniform (fun _ -> 1.0)) inst in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Selector.remove: request index out of range") (fun () ->
      Selector.remove sel 3);
  Alcotest.check_raises "negative"
    (Invalid_argument "Selector.remove: request index out of range") (fun () ->
      Selector.remove sel (-1))

(* The direct Selector law. [create], [select], [update_path] and
   [remove] are driven by hand under weights held in test-owned arrays
   that only grow, and after every step [select] must return what a
   brute-force scan returns: a fresh Dijkstra.shortest_path per
   pending request, minimum by (Float.compare alpha, request index),
   [None] exactly when no pending request is routable. The steps go
   beyond what a primal-dual loop does: growth on random edge sets as
   well as the selected path, jumps to infinity, removals in any
   order, and selected requests that stay pending. *)

(* A small grid or RMAT graph whose requests come from a few shared
   sources with a few demands, so Per_demand groups split by demand
   and still hold several members. Integer weights and values keep
   equal alphas, and so tie-breaks, common. *)
let selector_instance rng =
  let g =
    if Rng.bool rng then
      Gen.grid ~rows:(2 + Rng.int rng 3) ~cols:(2 + Rng.int rng 3) ~capacity:1.0
    else
      Gen.rmat rng ~scale:(2 + Rng.int rng 3) ~edge_factor:(1 + Rng.int rng 3)
        ~directed:(Rng.bool rng) ~capacity_lo:1.0 ~capacity_hi:2.0 ()
  in
  let n = Graph.n_vertices g in
  let sources = Array.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng n) in
  let requests =
    List.filter_map
      (fun _ ->
        let src = sources.(Rng.int rng (Array.length sources)) in
        let dst = Rng.int rng n in
        let demand = [| 0.25; 0.5; 1.0 |].(Rng.int rng 3) in
        let value = float_of_int (1 + Rng.int rng 4) in
        if src = dst then None else Some (Request.make ~src ~dst ~demand ~value))
      (List.init (1 + Rng.int rng 16) Fun.id)
  in
  Instance.create g (Array.of_list requests)

let scan_select inst ~weight pending =
  let g = Instance.graph inst in
  let best = ref None in
  Array.iteri
    (fun i live ->
      let r = Instance.request inst i in
      if live then
        match
          Dijkstra.shortest_path g ~weight:(weight r) ~src:r.Request.src
            ~dst:r.Request.dst
        with
        | None -> ()
        | Some (dist, path) -> (
          let alpha = Request.density r *. dist in
          match !best with
          | Some { Selector.alpha = a; _ } when Float.compare a alpha <= 0 -> ()
          | _ -> best := Some { Selector.request = i; path; alpha }))
    pending;
  !best

let same_choice (a : Selector.choice option) (b : Selector.choice option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    a.request = b.request && a.path = b.path && same_bits a.alpha b.alpha
  | Some _, None | None, Some _ -> false

let pp_choice = function
  | None -> "None"
  | Some (c : Selector.choice) ->
    Printf.sprintf "request %d alpha %h path [%s]" c.request c.alpha
      (String.concat ";" (List.map string_of_int c.path))

(* One run of at most 30 steps, its random choices drawn from [seed]:
   the same seed replays the same steps under every pool. [y] only
   grows; under Per_demand an edge also costs infinity for every
   demand above its [limit], which only shrinks. *)
let selector_scenario ~per_demand ~pool inst seed =
  let rng = Rng.create seed in
  let m = Graph.n_edges (Instance.graph inst) in
  let y = Array.init m (fun _ -> float_of_int (1 + Rng.int rng 3)) in
  let limit = Array.make m 1.0 in
  let per_demand_weight ~demand e =
    if limit.(e) < demand then infinity else y.(e)
  in
  let weights, weight =
    if per_demand then
      ( Selector.Per_demand per_demand_weight,
        fun r -> per_demand_weight ~demand:r.Request.demand )
    else (Selector.Uniform (fun e -> y.(e)), fun _ e -> y.(e))
  in
  let n = Instance.n_requests inst in
  let sel = Selector.create ~pool ~weights inst in
  let pending = Array.make n true in
  let remove i =
    pending.(i) <- false;
    Selector.remove sel i
  in
  (* A one-ulp step changes a path's length by at most an ulp, which
     a cache check that compares within a tolerance would miss. *)
  let grow e =
    match Rng.int rng 16 with
    | 0 -> y.(e) <- infinity
    | 1 -> limit.(e) <- limit.(e) -. 0.25
    | 2 | 3 -> y.(e) <- y.(e) *. Rng.float_in rng 1.0 2.0
    | 4 | 5 -> y.(e) <- Float.succ y.(e)
    | _ -> y.(e) <- y.(e) +. float_of_int (1 + Rng.int rng 2)
  in
  let rec step k =
    let got = Selector.select sel in
    let want = scan_select inst ~weight pending in
    if not (same_choice got want) then
      QCheck.Test.fail_reportf "%s, step %d: select gave %s, the scan %s"
        (match pool with `Seq -> "seq" | `Pool _ -> "2-domain pool")
        k (pp_choice got) (pp_choice want);
    (* Unroutable stays unroutable under growing weights: a [None]
       ends the run. *)
    match got with
    | Some c when k < 30 ->
      let edges =
        List.filter (fun _ -> Rng.int rng 4 = 0) (List.init m Fun.id)
        @ if Rng.bool rng then c.Selector.path else []
      in
      List.iter grow edges;
      Selector.update_path sel edges;
      (* The selected request leaves in a third of the steps; otherwise
         a random index may (and may already be gone). *)
      if Rng.int rng 3 = 0 then remove c.Selector.request
      else if Rng.bool rng then remove (Rng.int rng n);
      step (k + 1)
    | Some _ | None -> ()
  in
  step 0;
  true

let qcheck_selector_matches_scan pool =
  QCheck.Test.make ~count:200
    ~name:"select matches a fresh-Dijkstra scan at every step"
    QCheck.(pair (int_bound 0x3FFFFFFF) bool)
    (fun (seed, per_demand) ->
      let inst = selector_instance (Rng.create seed) in
      List.for_all
        (fun pool -> selector_scenario ~per_demand ~pool inst (seed + 1))
        [ `Seq; pool ])

let test_selector_matches_scan () =
  Ufp_par.Pool.with_pool ~domains:2 (fun pool ->
      QCheck.Test.check_exn (qcheck_selector_matches_scan pool))

(* A dual update on one request's path leaves a sibling request, whose
   own tree path shares no edge with it, served from the cached tree.
   Both requests leave source 0, so they share one tree, and that tree
   uses every announced edge: invalidating whole trees would rebuild
   it. *)
let test_selector_sibling_reuse () =
  let g = Graph.create ~directed:false ~n:5 in
  List.iter
    (fun (u, v) -> ignore (Graph.add_edge g ~u ~v ~capacity:1.0))
    [ (0, 1); (1, 2); (0, 3); (3, 4) ];
  let inst =
    Instance.create g
      [|
        Request.make ~src:0 ~dst:2 ~demand:1.0 ~value:4.0;
        Request.make ~src:0 ~dst:4 ~demand:1.0 ~value:1.0;
      |]
  in
  let rebuilds = Ufp_obs.Metrics.counter "selector.tree_rebuilds" in
  List.iter
    (fun (name, per_demand) ->
      let y = Array.make (Graph.n_edges g) 1.0 in
      let weights =
        if per_demand then Selector.Per_demand (fun ~demand:_ e -> y.(e))
        else Selector.Uniform (fun e -> y.(e))
      in
      let sel = Selector.create ~weights inst in
      let first = Option.get (Selector.select sel) in
      Alcotest.(check int) (name ^ ": cheaper request first") 0 first.request;
      List.iter (fun e -> y.(e) <- y.(e) *. 2.0) first.path;
      Selector.update_path sel first.path;
      Selector.remove sel first.request;
      let before = Ufp_obs.Metrics.value rebuilds in
      let next = Selector.select sel in
      Alcotest.(check int)
        (name ^ ": sibling served without a rebuild")
        0
        (Ufp_obs.Metrics.value rebuilds - before);
      Alcotest.(check string)
        (name ^ ": the sibling, as a scan selects it")
        (pp_choice (scan_select inst ~weight:(fun _ e -> y.(e)) [| false; true |]))
        (pp_choice next))
    [ ("uniform", false); ("per-demand", true) ]

(* One update_path + select step on a warmed Uniform selector over a
   40x40 grid stays under 1,000 minor words: the snapshot is patched on
   the path's edges, not rebuilt over all m, a cached tree is checked
   along the popped request's own path, and rebuilt trees and heap pops
   allocate nothing. What is left is the selected path and the patch's
   weight reads. *)
let test_selector_step_allocation () =
  let inst = grid_instance ~rows:40 ~cols:40 ~capacity:1.0 ~count:20 3 in
  let y = Array.make (Graph.n_edges (Instance.graph inst)) 1.0 in
  let sel = Selector.create ~weights:(Selector.Uniform (fun e -> y.(e))) inst in
  (* Select, inflate the path, consume the request; the caller
     announces the path. *)
  let step () =
    let c = Option.get (Selector.select sel) in
    List.iter (fun e -> y.(e) <- y.(e) *. 1.5) c.Selector.path;
    Selector.remove sel c.Selector.request;
    c.Selector.path
  in
  for _ = 1 to 4 do
    Selector.update_path sel (step ())
  done;
  let path = step () in
  let before = Gc.minor_words () in
  Selector.update_path sel path;
  let next = Selector.select sel in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "a request is still routable" true (Option.is_some next);
  if words >= 1000.0 then
    Alcotest.failf "update_path + select allocated %.0f minor words" words

(* --- Audit --- *)

module Audit = Ufp_core.Audit

let test_audit_passes_on_real_runs () =
  for seed = 1 to 5 do
    let inst = grid_instance ~capacity:15.0 ~count:40 seed in
    let run = Bounded_ufp.run ~eps:0.3 inst in
    let report = Audit.bounded_ufp_run inst run in
    Alcotest.(check bool)
      (Printf.sprintf "all checks pass seed %d" seed)
      true report.Audit.all_passed
  done

let test_audit_detects_tampering () =
  let inst = grid_instance ~capacity:15.0 ~count:20 2 in
  let run = Bounded_ufp.run ~eps:0.3 inst in
  (* Corrupt the z bookkeeping. *)
  let tampered_z = Array.copy run.Bounded_ufp.final_z in
  if Array.length tampered_z > 0 then tampered_z.(0) <- tampered_z.(0) +. 5.0;
  let tampered = { run with Bounded_ufp.final_z = tampered_z } in
  let report = Audit.bounded_ufp_run inst tampered in
  Alcotest.(check bool) "tampering detected" false report.Audit.all_passed;
  let failed =
    List.filter (fun f -> not f.Audit.passed) report.Audit.findings
  in
  Alcotest.(check bool) "z check flagged" true
    (List.exists (fun f -> f.Audit.check = "z-bookkeeping") failed)

let test_audit_detects_infeasible_solution () =
  let inst = grid_instance ~capacity:15.0 ~count:20 3 in
  let run = Bounded_ufp.run ~eps:0.3 inst in
  (* Duplicate the first allocation: no longer a valid solution. *)
  match run.Bounded_ufp.solution with
  | [] -> Alcotest.fail "expected allocations"
  | a :: _ ->
    let tampered =
      { run with Bounded_ufp.solution = a :: run.Bounded_ufp.solution }
    in
    let report = Audit.bounded_ufp_run inst tampered in
    Alcotest.(check bool) "infeasibility detected" false report.Audit.all_passed

let test_audit_pp () =
  let inst = grid_instance ~capacity:15.0 ~count:10 4 in
  let run = Bounded_ufp.run ~eps:0.3 inst in
  let s = Format.asprintf "%a" Audit.pp (Audit.bounded_ufp_run inst run) in
  Alcotest.(check bool) "renders PASS lines" true (String.length s > 50)

(* --- Rounding --- *)

module Rounding = Ufp_core.Rounding

let test_rounding_repaired_always_feasible () =
  for seed = 1 to 8 do
    let inst = grid_instance ~rows:3 ~cols:3 ~capacity:4.0 ~count:16 seed in
    let t = Rounding.round ~eps:0.2 ~seed inst in
    Alcotest.(check bool)
      (Printf.sprintf "repaired feasible seed %d" seed)
      true
      (Solution.is_feasible inst t.Rounding.solution);
    Alcotest.(check bool) "repair only drops" true
      (t.Rounding.value <= t.Rounding.tentative_value +. Float_tol.check_eps)
  done

let test_rounding_deterministic () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:4.0 ~count:12 3 in
  let a = Rounding.round ~seed:5 inst and b = Rounding.round ~seed:5 inst in
  Alcotest.(check (list int)) "same selection"
    (Solution.selected a.Rounding.solution)
    (Solution.selected b.Rounding.solution)

let test_rounding_tentative_flag_consistent () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:4.0 ~count:16 9 in
  let t = Rounding.round ~eps:0.2 ~seed:2 inst in
  if t.Rounding.tentative_feasible then
    (* Nothing was dropped: values agree. *)
    Alcotest.(check (float Float_tol.check_eps)) "no repair needed" t.Rounding.tentative_value
      t.Rounding.value

let test_rounding_flow_from_exact_lp () =
  (* Rounding the exact LP decomposition also repairs to feasibility. *)
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:2.0 ~count:8 4 in
  let lp = Ufp_lp.Path_lp.solve inst in
  let t = Rounding.round_flow ~flow:lp.Ufp_lp.Path_lp.flow ~eps:0.1 ~seed:7 inst in
  Alcotest.(check bool) "feasible" true
    (Solution.is_feasible inst t.Rounding.solution)

let test_rounding_validation () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:4.0 ~count:4 1 in
  Alcotest.check_raises "eps" (Invalid_argument "Rounding.round: eps must be in [0, 1)")
    (fun () -> ignore (Rounding.round ~eps:1.0 ~seed:1 inst));
  Alcotest.check_raises "trials"
    (Invalid_argument "Rounding.success_probability: trials <= 0") (fun () ->
      ignore (Rounding.success_probability ~trials:0 ~seed:1 inst))

let test_rounding_success_probability_bounds () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:6.0 ~count:10 5 in
  let p, frac = Rounding.success_probability ~trials:10 ~seed:3 inst in
  Alcotest.(check bool) "p in [0,1]" true (p >= 0.0 && p <= 1.0);
  Alcotest.(check bool) "fraction sane" true (frac >= 0.0 && frac <= 1.0 +. Float_tol.check_eps)

(* --- QCheck --- *)

let qcheck_online_prefix_property =
  QCheck.Test.make ~name:"online decisions ignore future arrivals" ~count:30
    QCheck.small_int (fun seed ->
      (* Run online on R, then on R extended with extra requests; the
         decisions on the common prefix must be identical — the
         defining property of an online algorithm. *)
      let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:10 (seed + 3) in
      let g = Instance.graph inst in
      let rng = Rng.create (seed + 900) in
      let extra = Workloads.random_requests rng g ~count:5 () in
      let extended =
        Instance.create g (Array.append (Instance.requests inst) extra)
      in
      let log_prefix inst' =
        (Online.route ~eps:0.3 inst').Online.log
        |> List.filteri (fun k _ -> k < 10)
        |> List.map (fun (e : Online.event) -> (e.Online.request, e.Online.accepted))
      in
      log_prefix inst = log_prefix extended)

let qcheck_bufp_feasible =
  QCheck.Test.make ~name:"Bounded-UFP output is always feasible" ~count:30
    QCheck.small_int (fun seed ->
      let inst = grid_instance ~rows:3 ~cols:3 ~capacity:10.0 ~count:12 (seed + 1) in
      Solution.is_feasible inst (Bounded_ufp.solve ~eps:0.4 inst))

let qcheck_bufp_within_certified =
  QCheck.Test.make ~name:"value never exceeds the certified upper bound" ~count:30
    QCheck.small_int (fun seed ->
      let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:10 (seed + 50) in
      let run = Bounded_ufp.run ~eps:0.3 inst in
      Solution.value inst run.Bounded_ufp.solution
      <= run.Bounded_ufp.certified_upper_bound +. Float_tol.loose_check_eps)

let qcheck_repeat_feasible =
  QCheck.Test.make ~name:"Bounded-UFP-Repeat output is always feasible" ~count:20
    QCheck.small_int (fun seed ->
      let inst = grid_instance ~rows:3 ~cols:3 ~capacity:5.0 ~count:6 (seed + 9) in
      Solution.is_feasible ~repetitions:true inst (Repeat.solve ~eps:0.4 inst))

let qcheck_monotone_improvement =
  QCheck.Test.make ~name:"winners keep winning after improving their type"
    ~count:30 QCheck.small_int (fun seed ->
      let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:8 (seed + 70) in
      let run = Bounded_ufp.run ~eps:0.3 inst in
      match Solution.selected run.Bounded_ufp.solution with
      | [] -> true
      | winners ->
        let rng = Rng.create seed in
        let w = List.nth winners (Rng.int rng (List.length winners)) in
        let r = Instance.request inst w in
        let improved =
          Instance.with_request inst w
            (Request.with_type r
               ~demand:(r.Request.demand *. Rng.float_in rng 0.5 1.0)
               ~value:(r.Request.value *. Rng.float_in rng 1.0 3.0))
        in
        List.mem w
          (Solution.selected (Bounded_ufp.solve ~eps:0.3 improved)))

let () =
  Alcotest.run "core"
    [
      ( "bounded-ufp-validation",
        [
          Alcotest.test_case "eps" `Quick test_bufp_eps_validation;
          Alcotest.test_case "requests" `Quick test_bufp_requires_requests;
          Alcotest.test_case "normalised" `Quick test_bufp_requires_normalized;
          Alcotest.test_case "B >= 1" `Quick test_bufp_requires_b_ge_1;
        ] );
      ( "bounded-ufp",
        [
          Alcotest.test_case "feasible" `Quick test_bufp_feasible_many_seeds;
          Alcotest.test_case "allocates all when ample" `Quick
            test_bufp_allocates_all_when_ample;
          Alcotest.test_case "tight capacity" `Quick test_bufp_respects_capacity_tight;
          Alcotest.test_case "prefers density" `Quick test_bufp_prefers_value_density;
          Alcotest.test_case "certified bound >= OPT" `Quick
            test_bufp_certified_bound_dominates_exact;
          Alcotest.test_case "trace consistent" `Quick test_bufp_trace_consistent;
          Alcotest.test_case "duals grow" `Quick test_bufp_final_duals_growth;
          Alcotest.test_case "deterministic" `Quick test_bufp_deterministic;
          Alcotest.test_case "budget formula" `Quick test_bufp_budget;
          Alcotest.test_case "stops on budget" `Quick test_bufp_stops_on_budget;
          Alcotest.test_case "unroutable skipped" `Quick
            test_bufp_unroutable_requests_skipped;
          Alcotest.test_case "monotone manual" `Quick test_bufp_monotone_manual;
        ] );
      ( "bounded-ufp-repeat",
        [
          Alcotest.test_case "feasible" `Quick test_repeat_feasible;
          Alcotest.test_case "repeats requests" `Quick test_repeat_repeats;
          Alcotest.test_case "ratio certificate" `Quick test_repeat_ratio_certificate;
          Alcotest.test_case "certificate dominates value" `Quick
            test_repeat_dual_certificate_valid;
          Alcotest.test_case "validation" `Quick test_repeat_validation;
        ] );
      ( "reasonable",
        [
          Alcotest.test_case "matches Bounded-UFP" `Quick
            test_reasonable_matches_bounded_ufp;
          Alcotest.test_case "staircase ratio" `Quick test_reasonable_staircase_ratio;
          Alcotest.test_case "gadget ratio" `Quick test_reasonable_gadget_ratio;
          Alcotest.test_case "gadget optimum" `Quick test_reasonable_gadget_optimal_exists;
          Alcotest.test_case "priorities run" `Quick test_reasonable_priorities_run;
          Alcotest.test_case "saturates" `Quick test_reasonable_saturates;
          Alcotest.test_case "random tie deterministic" `Quick
            test_reasonable_random_tie_deterministic;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "greedy feasible" `Quick test_greedy_feasible;
          Alcotest.test_case "greedy order" `Quick test_greedy_order_matters;
          Alcotest.test_case "threshold-pd feasible" `Quick test_threshold_pd_feasible;
          Alcotest.test_case "threshold-pd accepts" `Quick test_threshold_pd_accepts_cheap;
          Alcotest.test_case "threshold-pd rejects" `Quick
            test_threshold_pd_rejects_expensive;
          Alcotest.test_case "rounding feasible" `Quick test_randomized_rounding_feasible;
          Alcotest.test_case "rounding deterministic" `Quick
            test_randomized_rounding_deterministic;
        ] );
      ( "online",
        [
          Alcotest.test_case "feasible" `Quick test_online_feasible;
          Alcotest.test_case "log consistent" `Quick test_online_log_consistent;
          Alcotest.test_case "order independence of feasibility" `Quick
            test_online_order_matters_but_feasible;
          Alcotest.test_case "order validation" `Quick test_online_order_validation;
          Alcotest.test_case "below offline total" `Quick
            test_online_below_offline_total;
          Alcotest.test_case "monotone per order" `Quick
            test_online_monotone_for_fixed_order;
          Alcotest.test_case "rejects worthless" `Quick test_online_rejects_worthless;
        ] );
      ( "pd-engine",
        [
          Alcotest.test_case "reproduces Bounded-UFP" `Quick
            test_engine_reproduces_bounded_ufp;
          Alcotest.test_case "reproduces Repeat" `Quick test_engine_reproduces_repeat;
          Alcotest.test_case "reproduces threshold-PD" `Quick
            test_engine_reproduces_threshold_pd;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "iteration guard" `Quick test_engine_iteration_guard;
          Alcotest.test_case "matches the literal transcription" `Quick
            test_engine_matches_oracle;
        ] );
      ( "selector",
        [
          Alcotest.test_case "remove idempotent" `Quick
            test_selector_remove_is_idempotent;
          Alcotest.test_case "remove out of range" `Quick
            test_selector_remove_out_of_range;
          Alcotest.test_case "matches a fresh-Dijkstra scan" `Quick
            test_selector_matches_scan;
          Alcotest.test_case "sibling reuses the cached tree" `Quick
            test_selector_sibling_reuse;
          Alcotest.test_case "warmed step allocation" `Quick
            test_selector_step_allocation;
        ] );
      ( "audit",
        [
          Alcotest.test_case "passes on real runs" `Quick
            test_audit_passes_on_real_runs;
          Alcotest.test_case "detects tampering" `Quick test_audit_detects_tampering;
          Alcotest.test_case "detects infeasibility" `Quick
            test_audit_detects_infeasible_solution;
          Alcotest.test_case "pp" `Quick test_audit_pp;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "repaired feasible" `Quick
            test_rounding_repaired_always_feasible;
          Alcotest.test_case "deterministic" `Quick test_rounding_deterministic;
          Alcotest.test_case "tentative flag" `Quick
            test_rounding_tentative_flag_consistent;
          Alcotest.test_case "exact LP flow" `Quick test_rounding_flow_from_exact_lp;
          Alcotest.test_case "validation" `Quick test_rounding_validation;
          Alcotest.test_case "success probability" `Quick
            test_rounding_success_probability_bounds;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_bufp_feasible;
            qcheck_bufp_within_certified;
            qcheck_repeat_feasible;
            qcheck_monotone_improvement;
            qcheck_online_prefix_property;
          ] );
    ]
