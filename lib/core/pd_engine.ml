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

(* Everything an iteration reads or writes. [execute] starts it fresh;
   [counterfactual] starts it fresh, then replays a trace prefix into
   it. *)
type state = {
  config : config;
  inst : Instance.t;
  g : Graph.t;
  b : float;
  y : float array;
  consume_residual : float -> int list -> unit;
  sel : Selector.t;
  mutable d1 : float;  (* sum_e c_e y_e *)
  (* D2 = sum of z_r = v_r over the selected requests; it stays 0 in
     the with-repetitions problem, whose dual (Figure 5) has no z. *)
  mutable d2 : float;
  mutable iterations : int;
  mutable trace : trace_entry list;  (* newest first *)
  mutable budget_exhausted : bool;
}

let start ?(pool = `Seq) config inst =
  if not (config.eps > 0.0 && config.eps <= 1.0) then
    invalid_arg "Pd_engine: eps must be in (0, 1]";
  if not (Instance.is_normalized inst) then
    invalid_arg "Pd_engine: instance must be normalised";
  let g = Instance.graph inst in
  if Graph.n_edges g = 0 then invalid_arg "Pd_engine: graph has no edges";
  let b = Graph.min_capacity g in
  if b < 1.0 then invalid_arg "Pd_engine: requires B >= 1";
  let m = Graph.n_edges g in
  let y = Graph.capacities g in
  for e = 0 to m - 1 do
    y.(e) <- 1.0 /. y.(e)
  done;
  (* The residual array exists (and is maintained) only when the config
     actually filters paths by it; Budget-mode runs skip the dead
     bookkeeping entirely. *)
  let weights, consume_residual =
    if config.respect_residual then begin
      let residual = Graph.capacities g in
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
  {
    config;
    inst;
    g;
    b;
    y;
    consume_residual;
    sel = Selector.create ~pool ~weights inst;
    d1 = float_of_int m (* sum_e c_e / c_e *);
    d2 = 0.0;
    iterations = 0;
    trace = [];
    budget_exhausted = false;
  }

(* Route request [i] on [path]: inflate the duals along it, consume
   its residual, announce the path to the selector and, without
   repetitions, retire the request. The loop and the counterfactual's
   replay share this code, so a replayed prefix leaves the duals
   bitwise where the run left them. *)
let commit st i path =
  let r = Instance.request st.inst i in
  let d1_before = st.d1 in
  let d1 = ref st.d1 in
  List.iter
    (fun e ->
      Metrics.incr m_dual_updates;
      let c = Graph.capacity st.g e in
      let old = st.y.(e) in
      st.y.(e) <-
        old *. st.config.inflation ~b:st.b ~demand:r.Request.demand ~capacity:c;
      d1 := !d1 +. (c *. (st.y.(e) -. old)))
    path;
  st.d1 <- !d1;
  Metrics.gauge_add g_d1_growth (st.d1 -. d1_before);
  Metrics.observe h_path_edges (float_of_int (List.length path));
  st.consume_residual r.Request.demand path;
  Selector.update_path st.sel path;
  if st.config.remove_selected then begin
    st.d2 <- st.d2 +. r.Request.value;
    Selector.remove st.sel i
  end

(* The loop, from the current state until its stop rule fires.
   [observe alpha] sees each accepted selection before its dual
   update, i.e. under the duals the selection was made against. *)
let loop ~max_iterations ~observe st =
  let continue = ref true in
  while !continue do
    if Selector.is_empty st.sel then continue := false
    else if
      match st.config.stop with
      | Budget bound -> st.d1 > bound
      | Threshold _ -> false
    then begin
      st.budget_exhausted <- true;
      continue := false
    end
    else begin
      match Selector.select st.sel with
      | Some { Selector.request = i; path; alpha }
        when match st.config.stop with
             | Budget _ -> true
             | Threshold bound -> alpha <= bound ->
        st.iterations <- st.iterations + 1;
        Metrics.incr m_iterations;
        (* Defensive budget: each no-repetition iteration permanently
           allocates one request, so this fires only on a
           non-terminating (repetitions) configuration. The exception
           carries the loop state so the caller can see how far the
           duals got. *)
        if st.iterations > max_iterations then
          raise
            (Iteration_limit
               { iterations = st.iterations; d1 = st.d1; stop = st.config.stop });
        Log.debug (fun m ->
            m "iteration %d: select request %d (alpha %.6g, %d edges)"
              st.iterations i alpha (List.length path));
        if Trace.is_on () then
          Trace.instant "pd.select"
            ~args:[ ("request", Trace.Int i); ("alpha", Trace.Float alpha) ];
        observe alpha;
        (* Claim 3.6 certificate (Claim 5.2's D/alpha when D2 = 0),
           using the duals before the update. *)
        let dual_bound =
          if alpha > 0.0 then (st.d1 /. alpha) +. st.d2 else infinity
        in
        commit st i path;
        st.trace <-
          { iteration = st.iterations; selected = i; path; alpha; d1 = st.d1;
            dual_bound }
          :: st.trace
      | Some _ | None ->
        (* No pending request is routable, or the threshold rejects
           the cheapest one. *)
        continue := false
    end
  done

let execute ?(max_iterations = 1_000_000) ?pool config inst =
  let st = start ?pool config inst in
  Metrics.incr m_runs;
  loop ~max_iterations ~observe:ignore st;
  let solution =
    List.rev_map
      (fun t -> { Solution.request = t.selected; path = t.path })
      st.trace
  in
  { solution; trace = List.rev st.trace; iterations = st.iterations;
    final_y = st.y; budget_exhausted = st.budget_exhausted }

(* Winner [w] = [trace.(k).selected], declaring any [v <= v_w], raises
   its own [alpha_w = (d_w / v) L_w] and leaves every other request's
   alone, so the run with that declaration is the run without [w]
   until [w] is selected; the run's first [k] iterations are already
   that run. From there, [w] would be selected at an iteration whose
   selection is [alpha_sel] exactly when [d_w L_w / v] drops below
   [alpha_sel] (ties go to the lower index), so the critical value is
   the least [d_w L_w / alpha_sel] over the rest of the run without
   [w] — unless that run runs out of candidates inside the budget
   while [w] is routable, when [w] wins at any positive value. *)
let counterfactual config inst trace k =
  let bound =
    match config with
    | { stop = Budget bound; remove_selected = true; _ } -> bound
    | _ ->
      invalid_arg
        "Pd_engine.counterfactual: needs a Budget stop without repetitions"
  in
  if k < 0 || k >= Array.length trace then
    invalid_arg "Pd_engine.counterfactual: trace index out of range";
  let w = trace.(k).selected in
  let demand = (Instance.request inst w).Request.demand in
  let st = start config inst in
  for j = 0 to k - 1 do
    commit st trace.(j).selected trace.(j).path
  done;
  Selector.remove st.sel w;
  st.iterations <- k;
  let c = ref infinity in
  loop ~max_iterations:max_int st ~observe:(fun alpha ->
      c := Float.min !c (demand *. Selector.distance st.sel w /. alpha));
  if
    (not st.budget_exhausted)
    && (not (st.d1 > bound))
    && Selector.distance st.sel w < infinity
  then 0.0
  else !c
