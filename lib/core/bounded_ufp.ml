let log_src = Logs.Src.create "ufp.bounded-ufp" ~doc:"Algorithm 1 (Bounded-UFP) tracing"

module Log = (val Logs.src_log log_src)

module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution
module Trace = Ufp_obs.Trace

type trace_entry = Pd_engine.trace_entry = {
  iteration : int;
  selected : int;
  path : int list;
  alpha : float;
  d1 : float;
  dual_bound : float;
}

type run = {
  solution : Solution.t;
  trace : trace_entry list;
  final_y : float array;
  final_z : float array;
  budget_exhausted : bool;
  certified_upper_bound : float;
  iterations : int;
  eps : float;
}

let budget ~eps ~b = exp (eps *. (b -. 1.0))

let theorem_ratio ~eps =
  (1.0 +. (6.0 *. eps)) *. Float.exp 1.0 /. (Float.exp 1.0 -. 1.0)

let validate inst ~eps =
  if not (eps > 0.0 && eps <= 1.0) then
    invalid_arg "Bounded_ufp: eps must be in (0, 1]";
  if Instance.n_requests inst = 0 then
    invalid_arg "Bounded_ufp: no requests";
  if Graph.n_edges (Instance.graph inst) = 0 then
    invalid_arg "Bounded_ufp: graph has no edges";
  if not (Instance.is_normalized inst) then
    invalid_arg "Bounded_ufp: instance must be normalised (demands in (0,1])";
  let b = Graph.min_capacity (Instance.graph inst) in
  if b < 1.0 then invalid_arg "Bounded_ufp: requires B = min capacity >= 1";
  b

let run ?(eps = 0.1) ?(pool = `Seq) inst =
  let b = validate inst ~eps in
  Trace.with_span "bounded_ufp.run" @@ fun () ->
  (* Each iteration allocates one request for good, so the loop ends
     after at most |R| iterations: the engine's guard is lifted. *)
  let { Pd_engine.solution; trace; iterations; final_y; budget_exhausted;
        certified_upper_bound } =
    Pd_engine.execute ~max_iterations:max_int ~pool
      (Pd_engine.algorithm_1 ~eps ~b) inst
  in
  Log.info (fun m ->
      m "done: %d iterations, value %.6g, budget_exhausted %b" iterations
        (Solution.value inst solution) budget_exhausted);
  let final_z = Array.make (Instance.n_requests inst) 0.0 in
  List.iter
    (fun (a : Solution.allocation) ->
      final_z.(a.request) <- (Instance.request inst a.request).Request.value)
    solution;
  { solution; trace; final_y; final_z; budget_exhausted; certified_upper_bound;
    iterations; eps }

let solve ?eps ?pool inst = (run ?eps ?pool inst).solution

let critical_values ?(pool = `Seq) inst run =
  let b = validate inst ~eps:run.eps in
  let config = Pd_engine.algorithm_1 ~eps:run.eps ~b in
  let trace = Array.of_list run.trace in
  let slot = Array.make (Instance.n_requests inst) (-1) in
  Array.iteri (fun k (t : trace_entry) -> slot.(t.selected) <- k) trace;
  (* Each counterfactual runs on a private engine state, so the pool
     reorders whole winners, never the float operations inside one:
     [`Pool p] returns bitwise the array [`Seq] does. *)
  Ufp_par.Pool.parallel_mapi ~pool ~n:(Array.length slot) (fun i ->
      if slot.(i) < 0 then 0.0
      else
        Trace.with_span "bounded_ufp.counterfactual" @@ fun () ->
        Pd_engine.counterfactual config inst trace slot.(i))
