let log_src =
  Logs.Src.create "ufp.bounded-ufp-repeat" ~doc:"Algorithm 3 tracing"

module Log = (val Logs.src_log log_src)

module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Solution = Ufp_instance.Solution
module Trace = Ufp_obs.Trace

type run = {
  solution : Solution.t;
  final_y : float array;
  certified_upper_bound : float;
  iterations : int;
}

let theorem_ratio ~eps = 1.0 +. (6.0 *. eps)

let run ?(eps = 0.1) ?(pool = `Seq) inst =
  if not (eps > 0.0 && eps <= 1.0) then
    invalid_arg "Bounded_ufp_repeat: eps must be in (0, 1]";
  if Instance.n_requests inst = 0 then
    invalid_arg "Bounded_ufp_repeat: no requests";
  if Graph.n_edges (Instance.graph inst) = 0 then
    invalid_arg "Bounded_ufp_repeat: graph has no edges";
  if not (Instance.is_normalized inst) then
    invalid_arg "Bounded_ufp_repeat: instance must be normalised";
  let b = Graph.min_capacity (Instance.graph inst) in
  if b < 1.0 then invalid_arg "Bounded_ufp_repeat: requires B >= 1";
  Trace.with_span "bounded_ufp_repeat.run" @@ fun () ->
  (* The dual budget alone ends the loop (within m c_max / d_min
     iterations, see the .mli), so the engine's guard is lifted. *)
  let { Pd_engine.solution; trace; iterations; final_y; _ } =
    Pd_engine.execute ~max_iterations:max_int ~pool
      (Pd_engine.algorithm_3 ~eps ~b) inst
  in
  Log.info (fun m -> m "done: %d iterations (with repetitions)" iterations);
  (* Claim 5.2: y / alpha is feasible for the Figure 5 dual, so each
     trace entry's D / alpha upper-bounds the with-repetitions optimum. *)
  let best_bound =
    List.fold_left
      (fun acc (t : Pd_engine.trace_entry) -> Float.min acc t.dual_bound)
      infinity trace
  in
  let certified_upper_bound =
    if Float.equal best_bound infinity then Solution.value inst solution
    else best_bound
  in
  { solution; final_y; certified_upper_bound; iterations }

let solve ?eps ?pool inst = (run ?eps ?pool inst).solution
