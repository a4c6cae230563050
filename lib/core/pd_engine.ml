let log_src = Logs.Src.create "ufp.pd-engine" ~doc:"Primal-dual loop tracing"

module Log = (val Logs.src_log log_src)

module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution

module Metrics = Ufp_obs.Metrics
module Trace = Ufp_obs.Trace

type stop_rule = Budget of float | Threshold of float

type config = {
  eps : float;
  inflation : b:float -> demand:float -> capacity:float -> float;
  stop : stop_rule;
  remove_selected : bool;
  respect_residual : bool;
}

exception
  Iteration_limit of { iterations : int; d1 : float; stop : stop_rule }

let () =
  Printexc.register_printer (function
    | Iteration_limit { iterations; d1; stop } ->
      Some
        (Printf.sprintf
           "Ufp_core.Pd_engine.Iteration_limit {iterations = %d; d1 = %.6g; \
            stop = %s}"
           iterations d1
           (match stop with
           | Budget b -> Printf.sprintf "Budget %.6g" b
           | Threshold t -> Printf.sprintf "Threshold %.6g" t))
    | _ -> None)

(* Residual-vs-demand comparisons share one slack with the auditor so
   "fits" means the same thing everywhere. *)
let capacity_slack = Ufp_prelude.Float_tol.capacity_slack

(* The algorithm-level work counters (docs/OBSERVABILITY.md). This is
   their only registration site: every primal-dual run in the library
   goes through [execute], so the values are pure functions of the
   selection trace and identical across pool modes (a test_obs.ml
   law). *)
let m_runs = Metrics.counter "pd.runs"

let m_iterations = Metrics.counter "pd.iterations"

let m_dual_updates = Metrics.counter "pd.dual_updates"

(* Not pd.*: a rejection is counted whenever the selector reads an
   edge's weight — once per edge per snapshot build, once per patched
   edge — which is selector cache economics, so the counter lives with
   the other selector.* counters (like them, it is the same across
   pool modes). *)
let m_residual_rejections = Metrics.counter "selector.residual_rejections"

let g_d1_growth = Metrics.gauge "pd.d1_growth"

let h_path_edges = Metrics.histogram "pd.path_edges"

let algorithm_1 ~eps ~b =
  {
    eps;
    inflation = (fun ~b ~demand ~capacity -> exp (eps *. b *. demand /. capacity));
    stop = Budget (exp (eps *. (b -. 1.0)));
    remove_selected = true;
    respect_residual = false;
  }

let algorithm_3 ~eps ~b =
  { (algorithm_1 ~eps ~b) with remove_selected = false }

let threshold_rule ~eps ~b =
  { (algorithm_1 ~eps ~b) with stop = Threshold 1.0; respect_residual = true }

type trace_entry = {
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
  iterations : int;
  final_y : float array;
  budget_exhausted : bool;
}

let execute ?(max_iterations = 1_000_000) ?(pool = `Seq) config inst =
  if not (config.eps > 0.0 && config.eps <= 1.0) then
    invalid_arg "Pd_engine: eps must be in (0, 1]";
  if not (Instance.is_normalized inst) then
    invalid_arg "Pd_engine: instance must be normalised";
  let g = Instance.graph inst in
  if Graph.n_edges g = 0 then invalid_arg "Pd_engine: graph has no edges";
  let b = Graph.min_capacity g in
  if b < 1.0 then invalid_arg "Pd_engine: requires B >= 1";
  Metrics.incr m_runs;
  let m = Graph.n_edges g in
  let y = Array.init m (fun e -> 1.0 /. Graph.capacity g e) in
  (* The residual array exists (and is maintained) only when the config
     actually filters paths by it; Budget-mode runs skip the dead
     bookkeeping entirely. *)
  let weights, consume_residual =
    if config.respect_residual then begin
      let residual = Array.init m (fun e -> Graph.capacity g e) in
      ( Selector.Per_demand
          (fun ~demand e ->
            if residual.(e) +. capacity_slack < demand then begin
              Metrics.incr m_residual_rejections;
              infinity
            end
            else y.(e)),
        fun demand path ->
          List.iter (fun e -> residual.(e) <- residual.(e) -. demand) path )
    end
    else (Selector.Uniform (fun e -> y.(e)), fun _ _ -> ())
  in
  let sel = Selector.create ~pool ~weights inst in
  let d1 = ref (float_of_int m) (* sum_e c_e / c_e *) in
  (* D2 = sum of z_r = v_r over the selected requests; it stays 0 in
     the with-repetitions problem, whose dual (Figure 5) has no z. *)
  let d2 = ref 0.0 in
  let trace = ref [] in
  let iterations = ref 0 in
  let budget_exhausted = ref false in
  let continue = ref true in
  while !continue do
    if Selector.is_empty sel then continue := false
    else if
      match config.stop with Budget bound -> !d1 > bound | Threshold _ -> false
    then begin
      budget_exhausted := true;
      continue := false
    end
    else begin
      match Selector.select sel with
      | Some { Selector.request = i; path; alpha }
        when match config.stop with
             | Budget _ -> true
             | Threshold bound -> alpha <= bound ->
        incr iterations;
        Metrics.incr m_iterations;
        (* Defensive budget: each no-repetition iteration permanently
           allocates one request, so this fires only on a
           non-terminating (repetitions) configuration. The exception
           carries the loop state so the caller can see how far the
           duals got. *)
        if !iterations > max_iterations then
          raise
            (Iteration_limit
               { iterations = !iterations; d1 = !d1; stop = config.stop });
        Log.debug (fun m ->
            m "iteration %d: select request %d (alpha %.6g, %d edges)"
              !iterations i alpha (List.length path));
        if Trace.is_on () then
          Trace.instant "pd.select"
            ~args:[ ("request", Trace.Int i); ("alpha", Trace.Float alpha) ];
        let r = Instance.request inst i in
        (* Claim 3.6 certificate (Claim 5.2's D/alpha when D2 = 0),
           using the duals before the update. *)
        let dual_bound =
          if alpha > 0.0 then (!d1 /. alpha) +. !d2 else infinity
        in
        let d1_before = !d1 in
        List.iter
          (fun e ->
            Metrics.incr m_dual_updates;
            let c = Graph.capacity g e in
            let old = y.(e) in
            y.(e) <-
              old *. config.inflation ~b ~demand:r.Request.demand ~capacity:c;
            d1 := !d1 +. (c *. (y.(e) -. old)))
          path;
        Metrics.gauge_add g_d1_growth (!d1 -. d1_before);
        Metrics.observe h_path_edges (float_of_int (List.length path));
        consume_residual r.Request.demand path;
        Selector.update_path sel path;
        if config.remove_selected then begin
          d2 := !d2 +. r.Request.value;
          Selector.remove sel i
        end;
        trace :=
          { iteration = !iterations; selected = i; path; alpha; d1 = !d1;
            dual_bound }
          :: !trace
      | Some _ | None ->
        (* No pending request is routable, or the threshold rejects
           the cheapest one. *)
        continue := false
    end
  done;
  let solution =
    List.rev_map
      (fun t -> { Solution.request = t.selected; path = t.path })
      !trace
  in
  { solution; trace = List.rev !trace; iterations = !iterations; final_y = y;
    budget_exhausted = !budget_exhausted }
