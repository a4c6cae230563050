module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution
module Float_tol = Ufp_prelude.Float_tol
module Bounded_ufp = Ufp_core.Bounded_ufp

type algo = Instance.t -> Solution.t

let winners algo inst =
  let won = Array.make (Instance.n_requests inst) false in
  List.iter (fun a -> won.(a.Solution.request) <- true) (algo inst);
  won

let model algo =
  {
    Single_param.n_agents = Instance.n_requests;
    get_value = (fun inst i -> (Instance.request inst i).Request.value);
    set_value =
      (fun inst i v ->
        let r = Instance.request inst i in
        Instance.with_request inst i
          (Request.with_type r ~demand:r.Request.demand ~value:v));
    winners = winners algo;
  }

let payments ?rel_tol ?warm ?pool algo inst =
  Single_param.payments ?rel_tol ?warm ?pool (model algo) inst

let acceptance_thresholds ?pool inst run =
  Bounded_ufp.critical_values ?pool inst run

let utility ?v_hi ?rel_tol algo inst ~agent ~true_demand ~true_value
    ~declared_demand ~declared_value =
  let r = Instance.request inst agent in
  let declared =
    Instance.with_request inst agent
      (Request.with_type r ~demand:declared_demand ~value:declared_value)
  in
  let m = model algo in
  if not (Single_param.is_winner m declared agent) then 0.0
  else begin
    let payment =
      match Single_param.critical_value ?v_hi ?rel_tol m declared ~agent with
      | Some c -> c
      | None -> declared_value
    in
    let gross = if declared_demand >= true_demand -. Float_tol.demand_tol then true_value else 0.0 in
    gross -. payment
  end

type misreport_outcome = {
  declared : float * float;
  won : bool;
  outcome_utility : float;
}

let truthfulness_table ?rel_tol algo inst ~agent ~misreports =
  let r = Instance.request inst agent in
  let true_demand = r.Request.demand and true_value = r.Request.value in
  let m = model algo in
  (* One bisection ceiling for the whole table, from the truthful
     instance: the critical value never depends on the probed agent's
     own declaration, and re-summing all values per misreport is the
     kind of accidental O(n^2) this module is trying not to have. *)
  let v_hi = Single_param.default_v_hi m inst in
  let evaluate (d, v) =
    let declared =
      Instance.with_request inst agent (Request.with_type r ~demand:d ~value:v)
    in
    let won = Single_param.is_winner m declared agent in
    {
      declared = (d, v);
      won;
      outcome_utility =
        utility ~v_hi ?rel_tol algo inst ~agent ~true_demand ~true_value
          ~declared_demand:d ~declared_value:v;
    }
  in
  let truthful =
    utility ~v_hi ?rel_tol algo inst ~agent ~true_demand ~true_value
      ~declared_demand:true_demand ~declared_value:true_value
  in
  (List.map evaluate misreports, truthful)
