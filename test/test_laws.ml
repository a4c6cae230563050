(* Cross-module laws: algebraic properties that tie the solvers,
   certificates and mechanisms together. Each law here is a small
   theorem about this implementation — several are consequences of the
   paper's lemmas, others are sanity invariants (scale covariance,
   irrelevant-alternative stability) that catch integration bugs no
   single-module test can see. *)

module Graph = Ufp_graph.Graph
module Gen = Ufp_graph.Generators
module Request = Ufp_instance.Request
module Instance = Ufp_instance.Instance
module Solution = Ufp_instance.Solution
module Workloads = Ufp_instance.Workloads
module Bounded_ufp = Ufp_core.Bounded_ufp
module Baselines = Ufp_core.Baselines
module Online = Ufp_core.Online
module Exact = Ufp_lp.Exact
module Path_lp = Ufp_lp.Path_lp
module Mcf = Ufp_lp.Mcf
module Auction = Ufp_auction.Auction
module Bounded_muca = Ufp_auction.Bounded_muca
module Muca_baselines = Ufp_auction.Baselines
module Single_param = Ufp_mech.Single_param
module Ufp_mechanism = Ufp_mech.Ufp_mechanism
module Rng = Ufp_prelude.Rng
module Float_tol = Ufp_prelude.Float_tol

let grid_instance ?(rows = 3) ?(cols = 3) ?(capacity = 12.0) ?(count = 10) seed =
  let rng = Rng.create seed in
  let g = Gen.grid ~rows ~cols ~capacity in
  Instance.create g (Workloads.random_requests rng g ~count ())

(* --- Law 1: the certificate chain.

   For any instance small enough to solve exactly:
   greedy <= ILP OPT <= exact OPT_LP <= GK dual bound, and every
   algorithm's value <= its own certified bound. *)
let qcheck_certificate_chain =
  QCheck.Test.make ~name:"certificate chain: greedy <= OPT <= OPT_LP <= GK bound"
    ~count:25 QCheck.small_int (fun seed ->
      let inst = grid_instance ~capacity:2.0 ~count:6 (seed + 11) in
      let greedy = Solution.value inst (Baselines.greedy_by_density inst) in
      let opt = Exact.opt_value inst in
      let lp = (Path_lp.solve_colgen inst).Path_lp.opt in
      let _, gk = Mcf.fractional_opt_interval ~eps:0.2 inst in
      greedy <= opt +. Float_tol.loose_check_eps && opt <= lp +. Float_tol.loose_check_eps && lp <= gk +. Float_tol.loose_check_eps)

(* --- Law 2: scale covariance of values.

   Multiplying every value by k > 0 leaves every selection unchanged
   and scales critical payments by k. True for Bounded-UFP because
   selection depends on values only through the ordering of d/v path
   lengths. *)
let qcheck_value_scale_covariance =
  QCheck.Test.make ~name:"scaling all values scales payments, not selection"
    ~count:15
    QCheck.(pair small_int (float_range 0.25 4.0))
    (fun (seed, k) ->
      let inst = grid_instance ~capacity:10.0 ~count:8 (seed + 31) in
      let scaled =
        Instance.create (Instance.graph inst)
          (Array.map
             (fun (r : Request.t) ->
               Request.with_type r ~demand:r.Request.demand
                 ~value:(r.Request.value *. k))
             (Instance.requests inst))
      in
      let algo = Bounded_ufp.solve ~eps:0.3 in
      let sel inst = Solution.selected (algo inst) in
      if sel inst <> sel scaled then false
      else begin
        (* Spot-check one winner's critical value. *)
        match sel inst with
        | [] -> true
        | w :: _ -> (
          let model = Ufp_mechanism.model algo in
          match
            ( Single_param.critical_value ~rel_tol:Float_tol.fine_rel_tol model inst ~agent:w,
              Single_param.critical_value ~rel_tol:Float_tol.fine_rel_tol model scaled ~agent:w )
          with
          | Some c, Some c' ->
            (* Bisection tolerance scales with v_hi, hence the loose
               relative comparison. *)
            Float.abs (c' -. (k *. c)) <= Float_tol.report_slack *. Float.max 1.0 (k *. c) +. Float_tol.report_slack
          | None, None -> true
          | _ -> false)
      end)

(* --- Law 3: demand-capacity scale covariance.

   Multiplying every demand AND every capacity by the same k preserves
   Bounded-UFP's selection exactly (the algorithm sees only d/c ratios
   and B = min c / max d, both invariant). *)
let qcheck_demand_capacity_covariance =
  QCheck.Test.make ~name:"joint demand/capacity scaling preserves selection"
    ~count:20
    QCheck.(pair small_int (float_range 0.5 3.0))
    (fun (seed, k) ->
      let inst = grid_instance ~capacity:10.0 ~count:8 (seed + 47) in
      let g = Instance.graph inst in
      let g' = Graph.create ~directed:(Graph.is_directed g) ~n:(Graph.n_vertices g) in
      Graph.fold_edges
        (fun e () ->
          ignore
            (Graph.add_edge g' ~u:e.Graph.u ~v:e.Graph.v
               ~capacity:(e.Graph.capacity *. k)))
        g ();
      let scaled =
        Instance.create g'
          (Array.map
             (fun (r : Request.t) ->
               Request.with_type r ~demand:(r.Request.demand *. k)
                 ~value:r.Request.value)
             (Instance.requests inst))
      in
      (* Renormalise: demands must stay in (0, 1]. *)
      let scaled = Instance.normalize scaled in
      let base = Instance.normalize inst in
      Solution.selected (Bounded_ufp.solve ~eps:0.3 base)
      = Solution.selected (Bounded_ufp.solve ~eps:0.3 scaled))

(* --- Law 4: irrelevant alternatives (MUCA).

   Appending a bid that ends up losing cannot change the winner set:
   Bounded-MUCA's trajectory only moves when the new bid is selected. *)
let qcheck_muca_irrelevant_alternative =
  QCheck.Test.make ~name:"a losing extra bid never changes MUCA winners"
    ~count:30 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 71) in
      let items = 8 in
      let a =
        Ufp_auction.Workloads.uniform rng ~items ~multiplicity:6 ~bids:12 ()
      in
      let extra =
        Auction.make_bid
          ~bundle:(Rng.sample_without_replacement rng 3 items)
          ~value:(Rng.float_in rng 0.1 3.0)
      in
      let bigger =
        Auction.create
          ~multiplicities:(Array.init items (fun u -> Auction.multiplicity a u))
          (Array.append (Auction.bids a) [| extra |])
      in
      let algo = Bounded_muca.solve ~eps:0.3 in
      let old_winners = algo a in
      let new_winners = algo bigger in
      let extra_index = Auction.n_bids a in
      if List.mem extra_index new_winners then true (* not a losing bid *)
      else List.sort compare new_winners = List.sort compare old_winners)

(* --- Law 5: the same stability for UFP requests. *)
let qcheck_ufp_irrelevant_alternative =
  QCheck.Test.make ~name:"a losing extra request never changes UFP winners"
    ~count:25 QCheck.small_int (fun seed ->
      let inst = grid_instance ~capacity:10.0 ~count:8 (seed + 97) in
      let g = Instance.graph inst in
      let rng = Rng.create (seed + 98) in
      let extra = Workloads.random_requests rng g ~count:1 () in
      let bigger =
        Instance.create g (Array.append (Instance.requests inst) extra)
      in
      let algo = Bounded_ufp.solve ~eps:0.3 in
      let old_winners = Solution.selected (algo inst) in
      let new_winners = Solution.selected (algo bigger) in
      let extra_index = Instance.n_requests inst in
      if List.mem extra_index new_winners then true
      else List.sort compare new_winners = List.sort compare old_winners)

(* --- Law 6: normalisation idempotence and equivalence. *)
let qcheck_normalize_idempotent =
  QCheck.Test.make ~name:"normalisation is idempotent and value-preserving"
    ~count:30 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 13) in
      let g = Gen.grid ~rows:3 ~cols:3 ~capacity:9.0 in
      let reqs = Workloads.random_requests rng g ~count:6 ~demand:(1.0, 3.0) () in
      let inst = Instance.create g reqs in
      let n1 = Instance.normalize inst in
      let n2 = Instance.normalize n1 in
      n2 == n1
      && Float.abs (Instance.total_value n1 -. Instance.total_value inst) < Float_tol.check_eps
      && Float.abs (Instance.bound n1 -. Instance.bound inst) < Float_tol.check_eps)

(* --- Law 7: the online rule never admits a losing-at-arrival request
   that the offline budgeted rule would certify as over-budget from the
   start — concretely, online value is always <= sum of values (sanity)
   and every accepted cost is <= 1 (the acceptance invariant). *)
let qcheck_online_acceptance_invariant =
  QCheck.Test.make ~name:"online acceptance invariant: cost <= 1, feasible"
    ~count:25 QCheck.small_int (fun seed ->
      let inst = grid_instance ~capacity:12.0 ~count:20 (seed + 3) in
      let run = Online.route ~eps:0.3 inst in
      Solution.is_feasible inst run.Online.solution
      && List.for_all
           (fun (e : Online.event) ->
             (not e.Online.accepted) || e.Online.cost <= 1.0)
           run.Online.log)

(* --- Law 8: exact solvers agree across representations.

   A UFP instance where every request's path set is a single edge is
   isomorphic to a multi-unit auction; the two exact solvers must
   agree on the optimum. *)
let qcheck_exact_solvers_agree =
  QCheck.Test.make ~name:"UFP exact and MUCA exact agree on star instances"
    ~count:30 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 5) in
      let items = 4 in
      (* Star: centre 0, leaf u+1 per item; request (0 -> u+1) uses
         exactly edge u. Multiplicity c_u = edge capacity. *)
      let caps = Array.init items (fun _ -> float_of_int (Rng.int_in rng 1 3)) in
      let g = Graph.create ~directed:true ~n:(items + 1) in
      Array.iteri
        (fun u c -> ignore (Graph.add_edge g ~u:0 ~v:(u + 1) ~capacity:c))
        caps;
      let n_req = Rng.int_in rng 2 8 in
      let reqs =
        Array.init n_req (fun _ ->
            let u = Rng.int rng items in
            Request.make ~src:0 ~dst:(u + 1) ~demand:1.0
              ~value:(Rng.float_in rng 0.5 2.0))
      in
      let inst = Instance.create g reqs in
      let auction =
        Auction.create
          ~multiplicities:(Array.map int_of_float caps)
          (Array.map
             (fun (r : Request.t) ->
               Auction.make_bid ~bundle:[ r.Request.dst - 1 ]
                 ~value:r.Request.value)
             reqs)
      in
      Float.abs (Exact.opt_value inst -. Muca_baselines.opt_value auction)
      < Float_tol.check_eps)

(* --- Law 9: Solution serialisation round trip composes with
   feasibility. *)
let qcheck_solution_io_preserves_feasibility =
  QCheck.Test.make ~name:"solution io round trip preserves feasibility"
    ~count:25 QCheck.small_int (fun seed ->
      let inst = grid_instance ~capacity:8.0 ~count:8 (seed + 59) in
      let sol = Bounded_ufp.solve ~eps:0.3 inst in
      match
        Ufp_instance.Io.solution_of_string
          (Ufp_instance.Io.solution_to_string sol)
      with
      | Error _ -> false
      | Ok sol' ->
        sol = sol'
        && Solution.is_feasible inst sol' = Solution.is_feasible inst sol)

(* --- Law 10: certified bounds are antitone in information.

   The GK interval at a finer eps is contained in (or equal to) a
   coarser one up to solver slack — concretely the finer upper bound
   never exceeds the coarser one by more than float noise. *)
let qcheck_gk_upper_bound_improves =
  QCheck.Test.make ~name:"finer GK eps never worsens the upper bound" ~count:15
    QCheck.small_int (fun seed ->
      let inst = grid_instance ~capacity:6.0 ~count:8 (seed + 23) in
      let _, coarse = Mcf.fractional_opt_interval ~eps:0.5 inst in
      let _, fine = Mcf.fractional_opt_interval ~eps:0.1 inst in
      fine <= coarse +. Float_tol.loose_check_eps)

let () =
  Alcotest.run "laws"
    [
      ( "cross-module",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_certificate_chain;
            qcheck_value_scale_covariance;
            qcheck_demand_capacity_covariance;
            qcheck_muca_irrelevant_alternative;
            qcheck_ufp_irrelevant_alternative;
            qcheck_normalize_idempotent;
            qcheck_online_acceptance_invariant;
            qcheck_exact_solvers_agree;
            qcheck_solution_io_preserves_feasibility;
            qcheck_gk_upper_bound_improves;
          ] );
    ]
