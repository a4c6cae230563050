module Table = Ufp_prelude.Table
module Graph = Ufp_graph.Graph
module Gen = Ufp_graph.Generators
module Instance = Ufp_instance.Instance
module Solution = Ufp_instance.Solution
module Workloads = Ufp_instance.Workloads
module Pd_engine = Ufp_core.Pd_engine
module Reasonable = Ufp_core.Reasonable

(* An Algorithm 1 variant on the primal-dual engine: [update] maps
   eps*B*d/c to the multiplicative dual inflation, and the stopping
   budget is scaled by [budget_scale]. With [update = exp] and
   [budget_scale = 1] this is exactly Bounded-UFP. *)
let pd_variant ~eps ~update ~budget_scale inst =
  let b = Graph.min_capacity (Instance.graph inst) in
  let config =
    {
      (Pd_engine.algorithm_1 ~eps ~b) with
      Pd_engine.inflation =
        (fun ~b ~demand ~capacity -> update (eps *. b *. demand /. capacity));
      stop = Pd_engine.Budget (exp (eps *. (b -. 1.0) *. budget_scale));
    }
  in
  (Pd_engine.execute config inst).Pd_engine.solution

let update_rule_table ~quick =
  let table =
    Table.create
      ~title:"EXP-ABLATION (update rule): exponential vs truncated dual inflation"
      ~columns:[ "update rule"; "mean value"; "feasible runs"; "runs" ]
  in
  let eps = 0.3 in
  let capacity = Harness.capacity_for ~m:24 ~eps in
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  let rules =
    [
      ("exp(a)  [paper]", fun a -> exp a);
      ("1 + a   [first order]", fun a -> 1.0 +. a);
      ("1 + a + a^2 [second order]", fun a -> 1.0 +. a +. (a *. a));
    ]
  in
  List.iter
    (fun (name, update) ->
      let total = ref 0.0 and feasible = ref 0 in
      List.iter
        (fun seed ->
          let inst =
            Harness.grid_instance ~seed ~rows:4 ~cols:4 ~capacity
              ~count:(int_of_float capacity * 5)
          in
          let sol = pd_variant ~eps ~update ~budget_scale:1.0 inst in
          total := !total +. Solution.value inst sol;
          if Solution.is_feasible inst sol then incr feasible)
        seeds;
      Table.add_row table
        [
          name;
          Table.cell_f (!total /. float_of_int (List.length seeds));
          Table.cell_i !feasible;
          Table.cell_i (List.length seeds);
        ])
    rules;
  table

let budget_table ~quick =
  let table =
    Table.create
      ~title:
        "EXP-ABLATION (stopping budget): scaling exp(eps(B-1)) — larger budgets \
         break Lemma 3.3 feasibility"
      ~columns:[ "budget scale"; "mean value"; "feasible runs"; "runs" ]
  in
  let eps = 0.3 in
  let capacity = Harness.capacity_for ~m:24 ~eps in
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  List.iter
    (fun scale ->
      let total = ref 0.0 and feasible = ref 0 in
      List.iter
        (fun seed ->
          let inst =
            Harness.grid_instance ~seed ~rows:4 ~cols:4 ~capacity
              ~count:(int_of_float capacity * 8)
          in
          let sol = pd_variant ~eps ~update:exp ~budget_scale:scale inst in
          total := !total +. Solution.value inst sol;
          if Solution.is_feasible inst sol then incr feasible)
        seeds;
      Table.add_row table
        [
          Printf.sprintf "%.2fx" scale;
          Table.cell_f (!total /. float_of_int (List.length seeds));
          Table.cell_i !feasible;
          Table.cell_i (List.length seeds);
        ])
    [ 0.5; 0.75; 1.0; 1.5; 2.0 ];
  table

let reasonable_family_table ~quick =
  let table =
    Table.create
      ~title:
        "EXP-ABLATION (reasonable family): every member hits the lower bounds \
         (Section 3.3)"
      ~columns:
        [ "priority"; "staircase fraction (l=24,B=6)"; "gadget value (B=8, OPT 32)" ]
  in
  let b_stair = 6 and levels = if quick then 16 else 24 in
  let sc = Gen.staircase ~levels ~capacity:(float_of_int b_stair) in
  let stair_inst =
    Instance.create sc.Gen.graph
      (Workloads.staircase_requests sc ~per_source:b_stair)
  in
  let b_gadget = 8 in
  let gadget_inst =
    Instance.create
      (Gen.gadget7 ~capacity:(float_of_int b_gadget))
      (Workloads.gadget7_requests ~per_pair:b_gadget)
  in
  let priorities =
    [
      ("h (paper)", fun b -> Reasonable.h ~eps:0.1 ~b);
      ("h1 = ln(1+|p|) h", fun b -> Reasonable.h1 ~eps:0.1 ~b);
      ("h2 = (d/v) prod f/c", fun _ -> Reasonable.h2);
      ("hop greedy", fun _ -> Reasonable.hops);
    ]
  in
  List.iter
    (fun (name, make_priority) ->
      let stair =
        Reasonable.run
          ~priority:(make_priority (float_of_int b_stair))
          ~tie_break:Reasonable.prefer_max_second_vertex stair_inst
      in
      let frac =
        Solution.value stair_inst stair.Reasonable.solution
        /. float_of_int (levels * b_stair)
      in
      let gadget =
        Reasonable.run
          ~priority:(make_priority (float_of_int b_gadget))
          ~tie_break:(Reasonable.prefer_hub Gen.Gadget7.v7)
          gadget_inst
      in
      Table.add_row table
        [
          name;
          Table.cell_f frac;
          Table.cell_f (Solution.value gadget_inst gadget.Reasonable.solution);
        ])
    priorities;
  table

let tie_break_table ~quick =
  let table =
    Table.create
      ~title:
        "EXP-ABLATION (tie-breaking): the Figure 2 bound needs the adversarial \
         rule only to be exact — any rule lands in the same region"
      ~columns:
        [ "tie-break"; "staircase fraction (l=24,B=6)"; "gadget value (B=8, OPT 32)" ]
  in
  let b_stair = 6 and levels = if quick then 16 else 24 in
  let sc = Gen.staircase ~levels ~capacity:(float_of_int b_stair) in
  let stair_inst =
    Instance.create sc.Gen.graph
      (Workloads.staircase_requests sc ~per_source:b_stair)
  in
  let b_gadget = 8 in
  let gadget_inst =
    Instance.create
      (Gen.gadget7 ~capacity:(float_of_int b_gadget))
      (Workloads.gadget7_requests ~per_pair:b_gadget)
  in
  let policies =
    [
      ("adversarial (paper)", `Adversarial);
      ("neutral first", `First);
      ("random seed 1", `Random 1);
      ("random seed 2", `Random 2);
    ]
  in
  List.iter
    (fun (name, policy) ->
      let tie_for = function
        | `Stair -> (
          match policy with
          | `Adversarial -> Reasonable.prefer_max_second_vertex
          | `First -> Reasonable.first_candidate
          | `Random seed -> Reasonable.random_tie ~seed)
        | `Gadget -> (
          match policy with
          | `Adversarial -> Reasonable.prefer_hub Gen.Gadget7.v7
          | `First -> Reasonable.first_candidate
          | `Random seed -> Reasonable.random_tie ~seed)
      in
      let stair =
        Reasonable.run
          ~priority:(Reasonable.h ~eps:0.1 ~b:(float_of_int b_stair))
          ~tie_break:(tie_for `Stair) stair_inst
      in
      let gadget =
        Reasonable.run
          ~priority:(Reasonable.h ~eps:0.1 ~b:(float_of_int b_gadget))
          ~tie_break:(tie_for `Gadget) gadget_inst
      in
      Table.add_row table
        [
          name;
          Table.cell_f
            (Solution.value stair_inst stair.Reasonable.solution
            /. float_of_int (levels * b_stair));
          Table.cell_f (Solution.value gadget_inst gadget.Reasonable.solution);
        ])
    policies;
  table

let run ?(quick = false) () =
  [
    update_rule_table ~quick;
    budget_table ~quick;
    reasonable_family_table ~quick;
    tie_break_table ~quick;
  ]
