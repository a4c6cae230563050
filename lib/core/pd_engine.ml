module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
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

(* Algorithm-level work counters, shared by name with Bounded_ufp,
   Bounded_ufp_repeat and Baselines.threshold_pd: every primal-dual
   loop reports into the same catalogue (docs/OBSERVABILITY.md), and
   they are selection-engine-invariant — `Naive and `Incremental runs
   produce identical values (a test_obs.ml law). *)
let m_runs = Metrics.counter "pd.runs"

let m_iterations = Metrics.counter "pd.iterations"

let m_dual_updates = Metrics.counter "pd.dual_updates"

(* Not pd.*: since weight snapshots, a rejection is counted once per
   edge per snapshot build — how often snapshots are built is selector
   cache economics (it differs across engines and pool modes), so the
   counter lives with the other selector.* counters. *)
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

type run = {
  solution : Solution.t;
  iterations : int;
  final_y : float array;
}

let execute ?(max_iterations = 1_000_000) ?(selector = `Incremental)
    ?(pool = `Seq) config inst =
  if not (config.eps > 0.0 && config.eps <= 1.0) then
    invalid_arg "Pd_engine: eps must be in (0, 1]";
  if not (Instance.is_normalized inst) then
    invalid_arg "Pd_engine: instance must be normalised";
  let g = Instance.graph inst in
  if Graph.n_edges g = 0 then invalid_arg "Pd_engine: graph has no edges";
  let b = Graph.min_capacity g in
  if b < 1.0 then invalid_arg "Pd_engine: requires B >= 1";
  Metrics.incr m_runs;
  Trace.with_span "pd.execute" @@ fun () ->
  let m = Graph.n_edges g in
  let y = Array.init m (fun e -> 1.0 /. Graph.capacity g e) in
  (* The residual array exists (and is maintained) only when the config
     actually filters paths by it; Budget-mode runs skip the dead
     bookkeeping entirely. *)
  let weights =
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
  let weights, consume_residual = weights in
  let sel = Selector.create ~kind:selector ~pool ~weights inst in
  let d1 = ref (float_of_int m) in
  let solution = ref [] in
  let iterations = ref 0 in
  let continue = ref true in
  while !continue do
    if Selector.is_empty sel then continue := false
    else begin
      (match config.stop with
      | Budget bound -> if !d1 > bound then continue := false
      | Threshold _ -> ());
      if !continue then begin
        match Selector.select sel with
        | None -> continue := false
        | Some { Selector.request = i; path; alpha } ->
          let accept =
            match config.stop with
            | Budget _ -> true
            | Threshold bound -> alpha <= bound
          in
          if not accept then continue := false
          else begin
            incr iterations;
            Metrics.incr m_iterations;
            (* Defensive budget: each no-repetition iteration permanently
               allocates one request, so this fires only on a
               non-terminating (repetitions) configuration. The
               exception carries the loop state so the caller can see
               how far the duals got. *)
            if !iterations > max_iterations then
              raise
                (Iteration_limit
                   { iterations = !iterations; d1 = !d1; stop = config.stop });
            if Trace.is_on () then
              Trace.instant "pd.select"
                ~args:
                  [ ("request", Trace.Int i); ("alpha", Trace.Float alpha) ];
            let r = Instance.request inst i in
            let d1_before = !d1 in
            List.iter
              (fun e ->
                Metrics.incr m_dual_updates;
                let c = Graph.capacity g e in
                let old = y.(e) in
                y.(e) <-
                  old
                  *. config.inflation ~b ~demand:r.Ufp_instance.Request.demand
                       ~capacity:c;
                d1 := !d1 +. (c *. (y.(e) -. old)))
              path;
            Metrics.gauge_add g_d1_growth (!d1 -. d1_before);
            Metrics.observe h_path_edges (float_of_int (List.length path));
            consume_residual r.Ufp_instance.Request.demand path;
            Selector.update_path sel path;
            if config.remove_selected then Selector.remove sel i;
            solution := { Solution.request = i; path } :: !solution
          end
      end
    end
  done;
  { solution = List.rev !solution; iterations = !iterations; final_y = y }
