(* Tests for Ufp_mech: single_param, ufp_mechanism, muca_mechanism,
   monotonicity. *)

module Graph = Ufp_graph.Graph
module Gen = Ufp_graph.Generators
module Request = Ufp_instance.Request
module Instance = Ufp_instance.Instance
module Solution = Ufp_instance.Solution
module Workloads = Ufp_instance.Workloads
module Bounded_ufp = Ufp_core.Bounded_ufp
module Core_baselines = Ufp_core.Baselines
module Auction = Ufp_auction.Auction
module Bounded_muca = Ufp_auction.Bounded_muca
module Single_param = Ufp_mech.Single_param
module Ufp_mechanism = Ufp_mech.Ufp_mechanism
module Muca_mechanism = Ufp_mech.Muca_mechanism
module Monotonicity = Ufp_mech.Monotonicity
module Rng = Ufp_prelude.Rng
module Float_tol = Ufp_prelude.Float_tol
module Metrics = Ufp_obs.Metrics
module Pool = Ufp_par.Pool

let check_float = Alcotest.(check (float 2e-3))

(* One shared 2-domain pool for the parallel-payments laws (spawning
   per QCheck iteration would dominate the suite on small hosts). *)
let law_pool = lazy (Pool.create ~domains:2 ())

let () =
  at_exit (fun () ->
      if Lazy.is_val law_pool then Pool.shutdown (Lazy.force law_pool))

let m_probes = Metrics.counter "mech.payment_probes"

let probes_during f =
  let before = Metrics.value m_probes in
  let result = f () in
  (result, Metrics.value m_probes - before)

(* --- Single_param on a toy second-price auction ---

   Instance = array of declared values; one item; the winner is the
   unique highest bidder. This is monotone and its critical value is
   the second-highest declaration, so every payment is predictable. *)

let toy_model : float array Single_param.model =
  {
    Single_param.n_agents = Array.length;
    get_value = (fun vs i -> vs.(i));
    set_value =
      (fun vs i v ->
        let vs = Array.copy vs in
        vs.(i) <- v;
        vs);
    winners =
      (fun vs ->
        let best = ref 0 in
        Array.iteri (fun i v -> if v > vs.(!best) then best := i) vs;
        Array.mapi (fun i _ -> i = !best) vs);
  }

let test_toy_critical_value () =
  let vs = [| 3.0; 7.0; 5.0 |] in
  (match Single_param.critical_value toy_model vs ~agent:1 with
  | Some c -> check_float "second price" 5.0 c
  | None -> Alcotest.fail "winner must have a critical value");
  (* A loser that can win by bidding above the maximum. *)
  (match Single_param.critical_value toy_model vs ~agent:2 with
  | Some c -> check_float "losers critical is the max" 7.0 c
  | None -> Alcotest.fail "agent 2 could win at v_hi")

let test_toy_known_winner_small_v_hi () =
  (* Regression: with [known_winner:true] the warm bracket must start
     at the declaration, not [min v_hi declared]. A custom [v_hi]
     below the winner's declaration certifies nothing (monotonicity
     extends the declaration certificate upward only); the old cap
     made every probe lose, so the bisection silently converged onto
     ~v_hi and undercharged a winner whose critical value lies in
     (v_hi, declared]. Here the critical value is 5 and v_hi = 2. *)
  let vs = [| 3.0; 7.0; 5.0 |] in
  (match
     Single_param.critical_value ~v_hi:2.0 ~known_winner:true toy_model vs
       ~agent:1
   with
  | Some c -> check_float "critical value ignores the low ceiling" 5.0 c
  | None -> Alcotest.fail "known winner must have a critical value");
  (* Same protection one level up: warm payments with a low ceiling
     still charge the true critical value. *)
  let pay = Single_param.payments ~v_hi:2.0 ~warm:`Declared toy_model vs in
  check_float "warm payment ignores the low ceiling" 5.0 pay.(1)

let test_toy_payments () =
  let vs = [| 3.0; 7.0; 5.0 |] in
  let pay = Single_param.payments toy_model vs in
  check_float "loser pays nothing" 0.0 pay.(0);
  check_float "winner pays second price" 5.0 pay.(1);
  check_float "loser pays nothing" 0.0 pay.(2)

let test_toy_utility () =
  let vs = [| 3.0; 7.0; 5.0 |] in
  (* Agent 1, true value 7: utility = 7 - 5 = 2 at any winning bid. *)
  check_float "truthful utility" 2.0
    (Single_param.utility toy_model vs ~agent:1 ~true_value:7.0
       ~declared_value:7.0);
  check_float "overbid same utility" 2.0
    (Single_param.utility toy_model vs ~agent:1 ~true_value:7.0
       ~declared_value:100.0);
  check_float "losing bid zero" 0.0
    (Single_param.utility toy_model vs ~agent:1 ~true_value:7.0
       ~declared_value:1.0)

let test_toy_spot_check () =
  let vs = [| 3.0; 7.0; 5.0 |] in
  let sc =
    (* The slack must dominate the bisection error, which scales with
       the default v_hi (4 x the declaration total). *)
    Single_param.spot_check_truthfulness ~slack:Float_tol.report_slack toy_model vs ~agent:1
      ~misreports:[ 0.5; 5.5; 6.0; 20.0; 100.0 ]
  in
  Alcotest.(check bool) "no beating misreport" true
    (sc.Single_param.best_misreport = None);
  check_float "truthful utility" 2.0 sc.Single_param.truthful_utility

(* A hint is the payment: bitwise, at no probe, clamped at the
   declaration. *)
let test_toy_hinted_payments () =
  let vs = [| 3.0; 7.0; 5.0 |] in
  let pay, probes =
    probes_during (fun () ->
        Single_param.payments ~warm:(`Hinted (fun _ -> 5.0)) toy_model vs)
  in
  Alcotest.(check (array (float 0.0))) "hint paid as is" [| 0.0; 5.0; 0.0 |] pay;
  Alcotest.(check int) "no probe" 0 probes;
  let pay = Single_param.payments ~warm:(`Hinted (fun _ -> 9.0)) toy_model vs in
  Alcotest.(check (float 0.0)) "hint above the declaration" 7.0 pay.(1)

(* The two-probe certificate of agent 1's critical value, the second
   price 5: it passes the exact value at two probes and fails it moved
   by 1e-3 either way. A lone bidder's critical value is 0, where only
   the upper probe runs. *)
let test_toy_certify () =
  let vs = [| 3.0; 7.0; 5.0 |] in
  let certify vs payment =
    probes_during (fun () -> Single_param.certify toy_model vs ~agent:1 ~payment)
  in
  Alcotest.(check (pair bool int)) "exact" (true, 2) (certify vs 5.0);
  Alcotest.(check bool) "too high" false (fst (certify vs 5.001));
  Alcotest.(check bool) "too low" false (fst (certify vs 4.999));
  let lone =
    probes_during (fun () ->
        Single_param.certify toy_model [| 7.0 |] ~agent:0 ~payment:0.0)
  in
  Alcotest.(check (pair bool int)) "zero" (true, 1) lone

let test_toy_is_winner () =
  let vs = [| 3.0; 7.0; 5.0 |] in
  Alcotest.(check bool) "agent 1 wins" true (Single_param.is_winner toy_model vs 1);
  Alcotest.(check bool) "agent 0 loses" false (Single_param.is_winner toy_model vs 0)

(* --- UFP mechanism --- *)

let grid_instance ?(capacity = 12.0) ?(count = 8) seed =
  let rng = Rng.create seed in
  let g = Gen.grid ~rows:3 ~cols:3 ~capacity in
  Instance.create g (Workloads.random_requests rng g ~count ())

let algo = Bounded_ufp.solve ~eps:0.3

let test_ufp_winners () =
  let inst = grid_instance 3 in
  let won = Ufp_mechanism.winners algo inst in
  let sol = algo inst in
  List.iter
    (fun i -> Alcotest.(check bool) "winner flagged" true won.(i))
    (Solution.selected sol);
  Alcotest.(check int) "winner count" (List.length sol)
    (Array.fold_left (fun acc w -> if w then acc + 1 else acc) 0 won)

let test_ufp_payments_bounded_by_value () =
  let inst = grid_instance 5 in
  let pay = Ufp_mechanism.payments algo inst in
  let won = Ufp_mechanism.winners algo inst in
  Array.iteri
    (fun i p ->
      if won.(i) then begin
        Alcotest.(check bool) "payment nonnegative" true (p >= -.1e-9);
        Alcotest.(check bool) "payment <= declared value" true
          (p <= (Instance.request inst i).Request.value +. Float_tol.loose_check_eps)
      end
      else check_float "losers pay nothing" 0.0 p)
    pay

let test_ufp_critical_value_is_threshold () =
  let inst = grid_instance 7 in
  let model = Ufp_mechanism.model algo in
  let won = Ufp_mechanism.winners algo inst in
  let agent =
    match Array.to_list won |> List.mapi (fun i w -> (i, w))
          |> List.find_opt snd
    with
    | Some (i, _) -> i
    | None -> Alcotest.fail "no winner"
  in
  match Single_param.critical_value ~rel_tol:Float_tol.fine_rel_tol model inst ~agent with
  | None -> Alcotest.fail "winner has a critical value"
  | Some c ->
    let wins v =
      let r = Instance.request inst agent in
      let inst' =
        Instance.with_request inst agent
          (Request.with_type r ~demand:r.Request.demand ~value:v)
      in
      (Ufp_mechanism.winners algo inst').(agent)
    in
    Alcotest.(check bool) "wins just above" true (wins (c *. 1.01 +. Float_tol.loose_check_eps));
    if c > Float_tol.spot_check_slack then
      Alcotest.(check bool) "loses well below" false (wins (c /. 2.0))

let test_ufp_truthfulness_table () =
  let inst = grid_instance ~capacity:10.0 ~count:6 11 in
  let won = Ufp_mechanism.winners algo inst in
  let agent = ref (-1) in
  Array.iteri (fun i w -> if w && !agent = -1 then agent := i) won;
  if !agent >= 0 then begin
    let r = Instance.request inst !agent in
    let d = r.Request.demand and v = r.Request.value in
    let misreports =
      [
        (d, v /. 2.0); (d, v *. 2.0); (d, v *. 5.0);
        (d /. 2.0, v); (d /. 2.0, v *. 2.0);
        (Float.min 1.0 (d *. 1.5), v); (d, v /. 10.0);
      ]
    in
    let outcomes, truthful =
      Ufp_mechanism.truthfulness_table ~rel_tol:Float_tol.payment_rel_tol algo inst ~agent:!agent
        ~misreports
    in
    List.iter
      (fun (o : Ufp_mechanism.misreport_outcome) ->
        Alcotest.(check bool)
          (Printf.sprintf "misreport (%g, %g) does not beat truth"
             (fst o.Ufp_mechanism.declared)
             (snd o.Ufp_mechanism.declared))
          true
          (o.Ufp_mechanism.outcome_utility <= truthful +. Float_tol.report_slack))
      outcomes
  end

let test_ufp_utility_underdeclared_demand_hurts () =
  (* Winning with declared demand below the true demand yields a
     useless allocation: gross value 0, payment still due. *)
  let g = Gen.grid ~rows:2 ~cols:2 ~capacity:5.0 in
  let inst =
    Instance.create g
      [|
        Request.make ~src:0 ~dst:3 ~demand:0.9 ~value:4.0;
        Request.make ~src:0 ~dst:3 ~demand:0.5 ~value:1.0;
      |]
  in
  let u_truth =
    Ufp_mechanism.utility algo inst ~agent:0 ~true_demand:0.9 ~true_value:4.0
      ~declared_demand:0.9 ~declared_value:4.0
  in
  let u_lie =
    Ufp_mechanism.utility algo inst ~agent:0 ~true_demand:0.9 ~true_value:4.0
      ~declared_demand:0.3 ~declared_value:4.0
  in
  Alcotest.(check bool) "truth at least as good" true (u_truth >= u_lie -. Float_tol.loose_check_eps);
  Alcotest.(check bool) "lying yields no positive gain" true (u_lie <= Float_tol.loose_check_eps)

(* --- MUCA mechanism --- *)

let random_auction seed =
  let rng = Rng.create seed in
  let bid _ =
    Auction.make_bid
      ~bundle:(Rng.sample_without_replacement rng 3 8)
      ~value:(Rng.float_in rng 0.5 3.0)
  in
  Auction.create ~multiplicities:(Array.make 8 5) (Array.init 10 bid)

let muca_algo = Bounded_muca.solve ~eps:0.3

let test_muca_payments () =
  let a = random_auction 3 in
  let pay = Muca_mechanism.payments muca_algo a in
  let won = Muca_mechanism.winners muca_algo a in
  Array.iteri
    (fun i p ->
      if won.(i) then
        Alcotest.(check bool) "payment in [0, v]" true
          (p >= -.1e-9 && p <= (Auction.bid a i).Auction.value +. Float_tol.loose_check_eps)
      else check_float "loser pays 0" 0.0 p)
    pay

let test_muca_spot_check () =
  let a = random_auction 5 in
  let won = Muca_mechanism.winners muca_algo a in
  let agent = ref (-1) in
  Array.iteri (fun i w -> if w && !agent = -1 then agent := i) won;
  if !agent >= 0 then begin
    let v = (Auction.bid a !agent).Auction.value in
    let sc =
      Single_param.spot_check_truthfulness
        (Muca_mechanism.model muca_algo)
        a ~agent:!agent
        ~misreports:[ v /. 4.0; v /. 2.0; v *. 1.5; v *. 4.0; v *. 20.0 ]
    in
    Alcotest.(check bool) "no beating misreport" true
      (sc.Single_param.best_misreport = None)
  end

let test_muca_bundle_misreport () =
  (* Declaring a superset bundle: winning is not guaranteed, and when
     it loses the utility is 0; truthful utility is nonnegative. *)
  let a = random_auction 9 in
  let won = Muca_mechanism.winners muca_algo a in
  let agent = ref (-1) in
  Array.iteri (fun i w -> if w && !agent = -1 then agent := i) won;
  if !agent >= 0 then begin
    let b = Auction.bid a !agent in
    let truthful =
      Muca_mechanism.utility muca_algo a ~agent:!agent
        ~true_bundle:b.Auction.bundle ~true_value:b.Auction.value
        ~declared_bundle:b.Auction.bundle ~declared_value:b.Auction.value
    in
    Alcotest.(check bool) "truthful utility nonnegative" true
      (truthful >= -.1e-4);
    (* Misreport a smaller bundle that no longer covers the true one:
       gross value drops to 0, so utility cannot be positive. *)
    match b.Auction.bundle with
    | _ :: rest when rest <> [] ->
      let u =
        Muca_mechanism.utility muca_algo a ~agent:!agent
          ~true_bundle:b.Auction.bundle ~true_value:b.Auction.value
          ~declared_bundle:rest ~declared_value:b.Auction.value
      in
      Alcotest.(check bool) "partial bundle yields no gain" true (u <= Float_tol.loose_check_eps)
    | _ -> ()
  end

(* --- Monotonicity --- *)

let test_monotone_bounded_ufp () =
  for seed = 1 to 3 do
    let inst = grid_instance ~capacity:10.0 ~count:10 seed in
    Alcotest.(check bool)
      (Printf.sprintf "no violation seed %d" seed)
      true
      (Monotonicity.check_ufp ~trials:60 ~seed (Bounded_ufp.solve ~eps:0.3) inst
      = None)
  done

let test_monotone_threshold_pd () =
  let inst = grid_instance ~capacity:10.0 ~count:10 4 in
  Alcotest.(check bool) "threshold-pd monotone" true
    (Monotonicity.check_ufp ~trials:60 ~seed:4
       (Core_baselines.threshold_pd ~eps:0.3)
       inst
    = None)

let test_monotone_greedy_density () =
  let inst = grid_instance ~capacity:6.0 ~count:12 6 in
  Alcotest.(check bool) "greedy density monotone" true
    (Monotonicity.check_ufp ~trials:60 ~seed:6 Core_baselines.greedy_by_density
       inst
    = None)

let test_monotone_muca () =
  for seed = 1 to 3 do
    let a = random_auction (seed + 20) in
    Alcotest.(check bool)
      (Printf.sprintf "MUCA no violation seed %d" seed)
      true
      (Monotonicity.check_muca ~trials:60 ~seed muca_algo a = None)
  done

let test_monotonicity_checker_detects_violations () =
  (* An artificial anti-monotone rule: win iff the declared value lies
     below the mean — raising your value can make you lose. *)
  let silly inst =
    let n = Instance.n_requests inst in
    let mean = Instance.total_value inst /. float_of_int n in
    let sol = ref [] in
    for i = n - 1 downto 0 do
      let r = Instance.request inst i in
      if r.Request.value <= mean then
        (* Route on a fewest-hop path ignoring capacities: fine for the
           checker, which only looks at selection. *)
        match
          Ufp_graph.Dijkstra.shortest_path (Instance.graph inst)
            ~weight:(fun _ -> 1.0) ~src:r.Request.src ~dst:r.Request.dst
        with
        | Some (_, path) -> sol := { Solution.request = i; path } :: !sol
        | None -> ()
    done;
    !sol
  in
  let inst = grid_instance ~capacity:10.0 ~count:10 8 in
  match Monotonicity.check_ufp ~trials:200 ~seed:8 silly inst with
  | Some v ->
    Alcotest.(check bool) "violation has improved type" true
      (fst v.Monotonicity.improved_type <= fst v.Monotonicity.original_type +. Float_tol.check_eps
      && snd v.Monotonicity.improved_type >= snd v.Monotonicity.original_type -. Float_tol.check_eps)
  | None -> Alcotest.fail "expected a monotonicity violation"

let test_monotonicity_no_winners () =
  (* The empty algorithm has no winners, hence no violations. *)
  let inst = grid_instance ~capacity:10.0 ~count:5 10 in
  Alcotest.(check bool) "vacuously monotone" true
    (Monotonicity.check_ufp ~trials:20 ~seed:1 (fun _ -> []) inst = None)

(* --- VCG --- *)

module Vcg = Ufp_mech.Vcg

let chain_instance () =
  (* Chain 0 -> 1 -> 2, capacities 1: request A (0->2, v=2) vs
     B (0->1, v=1) + C (1->2, v=1). The optimum takes A (ties broken
     towards A by branch order); removing A leaves B + C worth 2, so
     A's Clarke payment is 2 - (2 - 2) = 2. *)
  let g = Ufp_graph.Graph.create ~directed:true ~n:3 in
  ignore (Ufp_graph.Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0);
  ignore (Ufp_graph.Graph.add_edge g ~u:1 ~v:2 ~capacity:1.0);
  Instance.create g
    [|
      Request.make ~src:0 ~dst:2 ~demand:1.0 ~value:2.0;
      Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0;
      Request.make ~src:1 ~dst:2 ~demand:1.0 ~value:1.0;
    |]

let test_vcg_chain () =
  let inst = chain_instance () in
  let out = Vcg.ufp inst in
  check_float "welfare" 2.0 out.Vcg.welfare;
  (* Whichever optimum was chosen, winners pay their full externality
     here (the losing side is worth the same). *)
  List.iter
    (fun i ->
      let v = (Instance.request inst i).Request.value in
      Alcotest.(check bool) "pays externality" true
        (out.Vcg.payments.(i) >= 0.0 && out.Vcg.payments.(i) <= v +. Float_tol.check_eps))
    (Solution.selected out.Vcg.allocation);
  (* Losers pay nothing. *)
  Array.iteri
    (fun i p ->
      if not (List.mem i (Solution.selected out.Vcg.allocation)) then
        check_float "loser pays 0" 0.0 p)
    out.Vcg.payments

let test_vcg_no_competition_free () =
  (* A single request with ample capacity pays nothing. *)
  let g = Ufp_graph.Graph.create ~directed:true ~n:2 in
  ignore (Ufp_graph.Graph.add_edge g ~u:0 ~v:1 ~capacity:5.0);
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:3.0 |]
  in
  let out = Vcg.ufp inst in
  check_float "free" 0.0 out.Vcg.payments.(0);
  check_float "welfare" 3.0 out.Vcg.welfare

let test_vcg_truthful_spot_check () =
  (* VCG over the exact allocation is truthful: misreporting the value
     never beats truth. *)
  let inst = grid_instance ~capacity:3.0 ~count:6 13 in
  let out = Vcg.ufp inst in
  match Solution.selected out.Vcg.allocation with
  | [] -> Alcotest.fail "expected winners"
  | w :: _ ->
    let r = Instance.request inst w in
    let v_true = r.Request.value in
    let utility declared =
      let inst' =
        Instance.with_request inst w
          (Request.with_type r ~demand:r.Request.demand ~value:declared)
      in
      let out' = Vcg.ufp inst' in
      if List.mem w (Solution.selected out'.Vcg.allocation) then
        v_true -. out'.Vcg.payments.(w)
      else 0.0
    in
    let u_truth = utility v_true in
    List.iter
      (fun factor ->
        Alcotest.(check bool)
          (Printf.sprintf "misreport x%g does not beat truth" factor)
          true
          (utility (v_true *. factor) <= u_truth +. Float_tol.loose_check_eps))
      [ 0.25; 0.5; 0.9; 1.5; 3.0; 10.0 ]

let test_vcg_equals_critical_value () =
  (* For a single-parameter welfare-maximising rule, Clarke payments
     coincide with critical values — the two payment codepaths must
     agree. *)
  for seed = 1 to 4 do
    let inst = grid_instance ~capacity:3.0 ~count:5 (seed + 60) in
    let exact_algo inst = Ufp_lp.Exact.solve inst in
    let out = Vcg.ufp inst in
    let model = Ufp_mechanism.model exact_algo in
    List.iter
      (fun w ->
        match Single_param.critical_value ~rel_tol:Float_tol.fine_rel_tol model inst ~agent:w with
        | Some crit ->
          Alcotest.(check (float Float_tol.report_slack))
            (Printf.sprintf "VCG = critical (seed %d, agent %d)" seed w)
            out.Vcg.payments.(w) crit
        | None -> Alcotest.fail "winner must have a critical value")
      (Solution.selected out.Vcg.allocation)
  done

(* Companion to [test_critical_value_accuracy_large_instance] on the
   hoisted VCG path (PR 9): a 5000-value request inflates the shared
   [default_v_hi] ceiling to ~2e4, so any bisection tolerance that
   scales with the ceiling (rather than the answer) or any drift in
   the hoisted-v_hi plumbing shows up as a payment gap here. *)
let test_vcg_payments_value_5000 () =
  let inst = grid_instance ~capacity:3.0 ~count:5 63 in
  let r = Instance.request inst 0 in
  let inst =
    Instance.with_request inst 0
      (Request.with_type r ~demand:r.Request.demand ~value:5000.0)
  in
  let out = Vcg.ufp inst in
  let winners = Solution.selected out.Vcg.allocation in
  Alcotest.(check bool) "the 5000-value request wins" true
    (List.mem 0 winners);
  let cp = Vcg.critical_payments ~rel_tol:Float_tol.fine_rel_tol inst in
  List.iter
    (fun w ->
      Alcotest.(check (float Float_tol.report_slack))
        (Printf.sprintf "VCG = hoisted critical (agent %d)" w)
        out.Vcg.payments.(w) cp.(w))
    winners

let test_vcg_muca () =
  let a =
    Auction.create ~multiplicities:[| 1; 1 |]
      [|
        Auction.make_bid ~bundle:[ 0; 1 ] ~value:2.5;
        Auction.make_bid ~bundle:[ 0 ] ~value:2.0;
        Auction.make_bid ~bundle:[ 1 ] ~value:1.0;
      |]
  in
  let out = Vcg.muca a in
  check_float "welfare 3" 3.0 out.Vcg.muca_welfare;
  Alcotest.(check (list int)) "winners 1,2" [ 1; 2 ]
    (List.sort compare out.Vcg.muca_allocation);
  (* Bid 1's externality: without it the optimum is 2.5 (the bundle
     bid), with it the others get 1.0 -> pays 2.5 - 1.0 = 1.5. *)
  check_float "bid 1 pays" 1.5 out.Vcg.muca_payments.(1);
  (* Bid 2 symmetric: 2.5 - 2.0 = 0.5. *)
  check_float "bid 2 pays" 0.5 out.Vcg.muca_payments.(2);
  check_float "loser pays 0" 0.0 out.Vcg.muca_payments.(0)

(* Regression for the bisection stopping rule: convergence must be
   measured against the critical value, not the starting ceiling.
   With 5000 extra unit bidders, default_v_hi is ~2e4, so the old
   [rel_tol * v_hi] stop left an absolute error of ~2e-2 on a
   critical value of 5.0; the answer-relative rule keeps it at
   ~5e-6. *)
let test_critical_value_accuracy_large_instance () =
  let n = 5000 in
  let vs = Array.make (n + 2) 1.0 in
  vs.(0) <- 10.0;
  vs.(1) <- 5.0;
  match Single_param.critical_value toy_model vs ~agent:0 with
  | None -> Alcotest.fail "top bidder must have a critical value"
  | Some c ->
    if Float.abs (c -. 5.0) > Float_tol.coarse_slack then
      Alcotest.failf
        "critical value %.8f is off by %.2e (> %.0e): the bisection \
         tolerance is scaling with v_hi again"
        c
        (Float.abs (c -. 5.0))
        Float_tol.coarse_slack

(* --- QCheck --- *)

let array_bitwise_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (Float.equal x b.(i)) then ok := false) a;
  !ok

(* The Ufp_par determinism contract, end to end: fanning the
   per-winner bisections out changes neither a single payment bit nor
   the total probe count. *)
let qcheck_parallel_payments_bitwise_ufp =
  QCheck.Test.make ~name:"UFP payments: parallel bitwise equals sequential"
    ~count:10 QCheck.small_int (fun seed ->
      let inst = grid_instance ~capacity:10.0 ~count:8 (seed + 60) in
      let seq, probes_seq =
        probes_during (fun () -> Ufp_mechanism.payments algo inst)
      in
      let par, probes_par =
        probes_during (fun () ->
            Ufp_mechanism.payments ~pool:(`Pool (Lazy.force law_pool)) algo
              inst)
      in
      array_bitwise_equal seq par && probes_seq = probes_par)

let qcheck_parallel_payments_bitwise_muca =
  QCheck.Test.make ~name:"MUCA payments: parallel bitwise equals sequential"
    ~count:10 QCheck.small_int (fun seed ->
      let a = random_auction (seed + 80) in
      let seq, probes_seq =
        probes_during (fun () -> Muca_mechanism.payments muca_algo a)
      in
      let par, probes_par =
        probes_during (fun () ->
            Muca_mechanism.payments ~pool:(`Pool (Lazy.force law_pool))
              muca_algo a)
      in
      array_bitwise_equal seq par && probes_seq = probes_par)

let qcheck_parallel_vcg_bitwise =
  QCheck.Test.make ~name:"VCG payments: parallel bitwise equals sequential"
    ~count:6 QCheck.small_int (fun seed ->
      let inst = grid_instance ~capacity:10.0 ~count:5 (seed + 100) in
      let seq = Vcg.ufp inst in
      let par = Vcg.ufp ~pool:(`Pool (Lazy.force law_pool)) inst in
      array_bitwise_equal seq.Vcg.payments par.Vcg.payments)

(* Warm-started brackets (PR 9). Warm and cold bisections visit
   different midpoints, so equality is within tolerance, not bitwise:
   each side's estimate exceeds the true critical value by at most
   [rel_tol * max 1.0 hi], so the two differ by at most twice that
   (doubled again below for slop). The probe claim IS deterministic,
   though: the warm bracket [0, declared] is at least 4x tighter than
   the cold [0, 4 * total] and skips the ceiling probe, so any
   instance with a winner must save probes. *)
let warm_cold_agree inst seq_cold warm probes_cold probes_warm ~has_winner
    ~label =
  let tol p =
    4.0 *. Float_tol.payment_rel_tol *. Float.max 1.0 (Float.abs p)
  in
  Array.iteri
    (fun i c ->
      if Float.abs (c -. warm.(i)) > tol c then
        QCheck.Test.fail_reportf "%s: agent %d warm %.9g vs cold %.9g" label i
          warm.(i) c)
    seq_cold;
  if has_winner && probes_warm >= probes_cold then
    QCheck.Test.fail_reportf "%s: warm used %d probes, cold %d" label
      probes_warm probes_cold;
  ignore inst;
  true

let qcheck_warm_equals_cold_ufp =
  QCheck.Test.make
    ~name:"UFP payments: warm-started equals cold within tolerance" ~count:10
    QCheck.small_int (fun seed ->
      let inst = grid_instance ~capacity:10.0 ~count:8 (seed + 60) in
      let cold, probes_cold =
        probes_during (fun () ->
            Ufp_mechanism.payments ~warm:`Cold algo inst)
      in
      let warm, probes_warm =
        probes_during (fun () ->
            Ufp_mechanism.payments ~warm:`Declared algo inst)
      in
      let has_winner = Array.exists (fun p -> p > 0.0) cold in
      warm_cold_agree inst cold warm probes_cold probes_warm ~has_winner
        ~label:"declared")

let qcheck_warm_hinted_equals_cold_ufp =
  QCheck.Test.make
    ~name:"UFP payments: forward-solve hints equal cold within tolerance"
    ~count:10 QCheck.small_int (fun seed ->
      let inst = grid_instance ~capacity:10.0 ~count:8 (seed + 60) in
      let run = Bounded_ufp.run ~eps:0.3 inst in
      let hints = Ufp_mechanism.acceptance_thresholds inst run in
      let cold, probes_cold =
        probes_during (fun () ->
            Ufp_mechanism.payments ~warm:`Cold algo inst)
      in
      let warm, probes_warm =
        probes_during (fun () ->
            Ufp_mechanism.payments
              ~warm:(`Hinted (fun i -> hints.(i)))
              algo inst)
      in
      let has_winner = Array.exists (fun p -> p > 0.0) cold in
      warm_cold_agree inst cold warm probes_cold probes_warm ~has_winner
        ~label:"hinted")

(* --- exact critical values against their definition ---

   [Bounded_ufp.critical_values] derives each winner's critical value
   from one counterfactual run. Nothing about that run is trusted here:
   each value is checked against outputs that define it, in the
   output-checking style of SNIPPETS.md snippet 2.
   - The cold bisection never sees the counterfactual, and it brackets
     the value: exact <= cold <= exact + rel_tol * max 1 cold (the left
     side up to [tight_eps] of float rounding).
   - Above [rel_tol], the winner wins a tolerance above the value and
     loses a tolerance below it.
   - A 2-domain pool returns the [`Seq] bits.
   - [Single_param.certify] passes the value with at most 2 probes.
   The instances are contended: each capacity sits just above
   [1 + ln m / eps], where Algorithm 1's budget [exp (eps (B - 1))]
   barely exceeds the starting dual mass [m]. The budget then ends the
   run with requests pending, and critical values are positive. Some
   RMAT draws still route every request, which covers the other ending:
   every winner's value is 0. *)
let contended_capacity ~eps ~seed m =
  1.0 +. (log (float_of_int m) /. eps) +. (0.25 *. float_of_int (1 + (seed mod 4)))

let oracle_instance kind seed eps =
  let rng = Rng.create seed in
  match kind with
  | 0 ->
    let rows = 3 + (seed mod 2) and cols = 3 + (seed / 2 mod 2) in
    let m = (rows * (cols - 1)) + (cols * (rows - 1)) in
    let g = Gen.grid ~rows ~cols ~capacity:(contended_capacity ~eps ~seed m) in
    Instance.create g
      (Workloads.random_requests rng g ~count:(12 + (seed mod 20)) ())
  | 1 ->
    let levels = 2 + (seed mod 3) in
    let m = levels + (levels * (levels + 1) / 2) in
    let b = Float.ceil (contended_capacity ~eps ~seed m) in
    let sc = Gen.staircase ~levels ~capacity:b in
    Instance.create sc.Gen.graph
      (Workloads.staircase_requests sc ~per_source:(int_of_float b))
  | 2 ->
    let b = Float.ceil (contended_capacity ~eps ~seed 8) in
    Instance.create (Gen.gadget7 ~capacity:b)
      (Workloads.gadget7_requests ~per_pair:(int_of_float b))
  | _ ->
    let scale = 5 + (seed mod 2) in
    let capacity = contended_capacity ~eps ~seed (2 * (1 lsl scale)) in
    let g =
      Gen.rmat rng ~scale ~edge_factor:2 ~capacity_lo:capacity
        ~capacity_hi:(1.25 *. capacity) ()
    in
    Instance.create g
      (Workloads.hub_requests rng g ~count:(48 + (seed mod 24)) ~sources:3 ())

(* An [oracle_instance] family and seed, and an eps. *)
let oracle_arb =
  QCheck.(
    pair
      (pair (int_range 0 3) (int_range 0 1000))
      (oneofl ~print:string_of_float [ 0.3; 0.6 ]))

let qcheck_exact_critical_values =
  QCheck.Test.make ~count:24
    ~name:"UFP exact critical values: cold bisection brackets them, probes certify them"
    oracle_arb
    (fun ((kind, seed), eps) ->
      let inst = oracle_instance kind seed eps in
      let run = Bounded_ufp.run ~eps inst in
      let exact = Bounded_ufp.critical_values inst run in
      let pooled =
        Bounded_ufp.critical_values ~pool:(`Pool (Lazy.force law_pool)) inst run
      in
      if not (array_bitwise_equal exact pooled) then
        QCheck.Test.fail_report "pooled critical values differ from `Seq";
      let model = Ufp_mechanism.model (Bounded_ufp.solve ~eps) in
      let rel_tol = Float_tol.payment_rel_tol in
      let wins w v =
        Single_param.is_winner model (model.Single_param.set_value inst w v) w
      in
      let winners = Ufp_mechanism.winners (Bounded_ufp.solve ~eps) inst in
      Array.iteri
        (fun w c ->
          if not winners.(w) then begin
            if not (Float.equal c 0.0) then
              QCheck.Test.fail_reportf "loser %d has critical value %.17g" w c
          end
          else begin
            (match Single_param.critical_value ~rel_tol model inst ~agent:w with
            | None -> QCheck.Test.fail_reportf "winner %d loses at v_hi" w
            | Some cold ->
              if
                c > cold +. (Float_tol.tight_eps *. Float.max 1.0 cold)
                || cold > c +. (rel_tol *. Float.max 1.0 cold)
              then
                QCheck.Test.fail_reportf "winner %d: exact %.17g, cold %.17g" w
                  c cold);
            if c > rel_tol then begin
              let d = rel_tol *. Float.max 1.0 c in
              if not (wins w (c +. d)) then
                QCheck.Test.fail_reportf "winner %d loses above %.17g" w c;
              if wins w (c -. d) then
                QCheck.Test.fail_reportf "winner %d wins below %.17g" w c
            end;
            let certified, probes =
              probes_during (fun () ->
                  Single_param.certify model inst ~agent:w ~payment:c)
            in
            if (not certified) || probes > 2 then
              QCheck.Test.fail_reportf
                "winner %d: certificate of %.17g %s after %d probes" w c
                (if certified then "passed" else "failed")
                probes
          end)
        exact;
      true)

(* Pay the counterfactual: hinted payments are the exact critical
   values themselves, clamped at the declaration, bitwise, and cost no
   probe beyond the winner-set solve. *)
let qcheck_hinted_pays_counterfactual =
  QCheck.Test.make ~count:24
    ~name:"UFP hinted payments pay the counterfactual bitwise, at no probe"
    oracle_arb
    (fun ((kind, seed), eps) ->
      let inst = oracle_instance kind seed eps in
      let run = Bounded_ufp.run ~eps inst in
      let c = Bounded_ufp.critical_values inst run in
      let won = Array.make (Instance.n_requests inst) false in
      List.iter (fun a -> won.(a.Solution.request) <- true) run.Bounded_ufp.solution;
      let pay, probes =
        probes_during (fun () ->
            Ufp_mechanism.payments ~warm:(`Hinted (fun i -> c.(i)))
              (Bounded_ufp.solve ~eps) inst)
      in
      if probes <> 0 then QCheck.Test.fail_reportf "%d probes" probes;
      Array.iteri
        (fun i p ->
          let expected =
            if won.(i) then Float.min c.(i) (Instance.request inst i).Request.value
            else 0.0
          in
          if not (Float.equal p expected) then
            QCheck.Test.fail_reportf "request %d pays %.17g, expected %.17g" i p
              expected)
        pay;
      true)

(* The audit's certificate: every exact critical value passes at no more
   than 2 probes, and the certificate catches a payment moved up or down
   by 4 rel_tol (relative, floored at 1) — the bracket [rel_tol/4] wide
   on each side cannot hold it. Below [4 rel_tol] a payment moved down
   leaves the positive declarations, so only larger values are moved. *)
let qcheck_certify_exact_values =
  QCheck.Test.make ~count:24
    ~name:"UFP certify passes exact critical values and fails them moved by 4 rel_tol"
    oracle_arb
    (fun ((kind, seed), eps) ->
      let inst = oracle_instance kind seed eps in
      let run = Bounded_ufp.run ~eps inst in
      let exact = Bounded_ufp.critical_values inst run in
      let model = Ufp_mechanism.model (Bounded_ufp.solve ~eps) in
      let rel_tol = Float_tol.payment_rel_tol in
      let certify w payment = Single_param.certify model inst ~agent:w ~payment in
      List.iter
        (fun a ->
          let w = a.Solution.request in
          let c = exact.(w) in
          let ok, probes = probes_during (fun () -> certify w c) in
          if (not ok) || probes > 2 then
            QCheck.Test.fail_reportf "winner %d: exact %.17g %s after %d probes" w c
              (if ok then "passed" else "failed")
              probes;
          if c > 4.0 *. rel_tol then begin
            let shift = 4.0 *. rel_tol *. Float.max 1.0 c in
            if certify w (c +. shift) then
              QCheck.Test.fail_reportf "winner %d: %.17g + %.3g passes" w c shift;
            if certify w (c -. shift) then
              QCheck.Test.fail_reportf "winner %d: %.17g - %.3g passes" w c shift
          end)
        run.Bounded_ufp.solution;
      true)

(* The seq/par bitwise law must also hold on the warm path: warm mode
   changes which probes run, never which domain runs them. *)
let qcheck_parallel_warm_bitwise_ufp =
  QCheck.Test.make
    ~name:"UFP payments: warm parallel bitwise equals warm sequential"
    ~count:10 QCheck.small_int (fun seed ->
      let inst = grid_instance ~capacity:10.0 ~count:8 (seed + 60) in
      let seq, probes_seq =
        probes_during (fun () ->
            Ufp_mechanism.payments ~warm:`Declared algo inst)
      in
      let par, probes_par =
        probes_during (fun () ->
            Ufp_mechanism.payments ~warm:`Declared
              ~pool:(`Pool (Lazy.force law_pool)) algo inst)
      in
      array_bitwise_equal seq par && probes_seq = probes_par)

let qcheck_toy_truthful =
  QCheck.Test.make ~name:"second-price toy mechanism is truthful" ~count:100
    QCheck.(triple (float_range 0.1 10.0) (float_range 0.1 10.0)
              (float_range 0.1 10.0))
    (fun (a, b, misreport) ->
      let vs = [| a; b |] in
      let u_truth =
        Single_param.utility toy_model vs ~agent:0 ~true_value:a
          ~declared_value:a
      in
      let u_lie =
        Single_param.utility toy_model vs ~agent:0 ~true_value:a
          ~declared_value:misreport
      in
      u_lie <= u_truth +. Float_tol.report_slack)

let qcheck_payments_below_value =
  QCheck.Test.make ~name:"UFP critical payments never exceed declarations"
    ~count:15 QCheck.small_int (fun seed ->
      let inst = grid_instance ~capacity:10.0 ~count:6 (seed + 40) in
      let pay = Ufp_mechanism.payments ~rel_tol:Float_tol.spot_check_slack algo inst in
      let ok = ref true in
      Array.iteri
        (fun i p ->
          if p > (Instance.request inst i).Request.value +. Float_tol.spot_check_slack then ok := false)
        pay;
      !ok)

let () =
  Alcotest.run "mech"
    [
      ( "single-param",
        [
          Alcotest.test_case "critical value" `Quick test_toy_critical_value;
          Alcotest.test_case "known winner below custom v_hi" `Quick
            test_toy_known_winner_small_v_hi;
          Alcotest.test_case "payments" `Quick test_toy_payments;
          Alcotest.test_case "utility" `Quick test_toy_utility;
          Alcotest.test_case "spot check" `Quick test_toy_spot_check;
          Alcotest.test_case "is_winner" `Quick test_toy_is_winner;
          Alcotest.test_case "hinted payments" `Quick test_toy_hinted_payments;
          Alcotest.test_case "certify" `Quick test_toy_certify;
          Alcotest.test_case "accuracy on large instances" `Quick
            test_critical_value_accuracy_large_instance;
        ] );
      ( "ufp-mechanism",
        [
          Alcotest.test_case "winners" `Quick test_ufp_winners;
          Alcotest.test_case "payments bounded" `Quick test_ufp_payments_bounded_by_value;
          Alcotest.test_case "critical threshold" `Quick
            test_ufp_critical_value_is_threshold;
          Alcotest.test_case "truthfulness table" `Quick test_ufp_truthfulness_table;
          Alcotest.test_case "underdeclared demand" `Quick
            test_ufp_utility_underdeclared_demand_hurts;
        ] );
      ( "muca-mechanism",
        [
          Alcotest.test_case "payments" `Quick test_muca_payments;
          Alcotest.test_case "spot check" `Quick test_muca_spot_check;
          Alcotest.test_case "bundle misreport" `Quick test_muca_bundle_misreport;
        ] );
      ( "monotonicity",
        [
          Alcotest.test_case "bounded-ufp" `Quick test_monotone_bounded_ufp;
          Alcotest.test_case "threshold-pd" `Quick test_monotone_threshold_pd;
          Alcotest.test_case "greedy density" `Quick test_monotone_greedy_density;
          Alcotest.test_case "muca" `Quick test_monotone_muca;
          Alcotest.test_case "detects violations" `Quick
            test_monotonicity_checker_detects_violations;
          Alcotest.test_case "no winners" `Quick test_monotonicity_no_winners;
        ] );
      ( "vcg",
        [
          Alcotest.test_case "chain" `Quick test_vcg_chain;
          Alcotest.test_case "no competition is free" `Quick
            test_vcg_no_competition_free;
          Alcotest.test_case "truthful spot check" `Quick test_vcg_truthful_spot_check;
          Alcotest.test_case "equals critical value" `Quick
            test_vcg_equals_critical_value;
          Alcotest.test_case "payments at value 5000" `Quick
            test_vcg_payments_value_5000;
          Alcotest.test_case "muca" `Quick test_vcg_muca;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_toy_truthful; qcheck_payments_below_value;
            qcheck_parallel_payments_bitwise_ufp;
            qcheck_parallel_payments_bitwise_muca;
            qcheck_parallel_vcg_bitwise;
            qcheck_warm_equals_cold_ufp;
            qcheck_warm_hinted_equals_cold_ufp;
            qcheck_parallel_warm_bitwise_ufp;
            qcheck_exact_critical_values;
            qcheck_hinted_pays_counterfactual;
            qcheck_certify_exact_values;
          ] );
    ]
