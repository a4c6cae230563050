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
   goes through [execute] or [execute_bundles], so the values are pure
   functions of the selection trace and identical across pool modes (a
   test_obs.ml law). *)
let m_runs = Metrics.counter "pd.runs"

let m_iterations = Metrics.counter "pd.iterations"

let m_dual_updates = Metrics.counter "pd.dual_updates"

(* Not pd.*: a rejection is counted whenever the selector reads an
   edge's weight — once per edge per snapshot build, once per patched
   edge — which is selector cache economics, so the counter lives with
   the other selector.* counters (like them, it is the same across
   pool modes). *)
let m_residual_rejections = Metrics.counter "selector.residual_rejections"

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
  certified_upper_bound : float;
}

(* What the loop reads of the pending requests and their candidates;
   [distance i] is the dual length of request [i]'s candidate. *)
type source = {
  capacity : int -> float;
  demand : int -> float;
  value : int -> float;
  distance : int -> float;
  is_empty : unit -> bool;
  select : unit -> Selector.choice option;
  update_path : demand:float -> int list -> unit;  (* after its dual update *)
  remove : int -> unit;
}

(* Everything an iteration reads or writes. [execute] and
   [execute_bundles] start it fresh; [counterfactual] starts it fresh,
   then replays a trace prefix into it. *)
type state = {
  config : config;
  source : source;
  b : float;
  y : float array;
  mutable d1 : float;  (* sum_e c_e y_e *)
  (* D2 = sum of z_r = v_r over the selected requests; it stays 0 in
     the with-repetitions problem, whose dual (Figure 5) has no z. *)
  mutable d2 : float;
  mutable iterations : int;
  mutable trace : trace_entry list;  (* newest first *)
  mutable budget_exhausted : bool;
}

(* [y] holds the capacities, inverted here into the initial duals 1/c. *)
let start config ~b y source =
  if not (config.eps > 0.0 && config.eps <= 1.0) then
    invalid_arg "Pd_engine: eps must be in (0, 1]";
  if b < 1.0 then invalid_arg "Pd_engine: requires B >= 1";
  for e = 0 to Array.length y - 1 do
    y.(e) <- 1.0 /. y.(e)
  done;
  { config; source = source y; b; y; d1 = float_of_int (Array.length y);
    d2 = 0.0; iterations = 0; trace = []; budget_exhausted = false }

(* Graph paths from the Selector, over the graph's capacity column. *)
let start_paths ?(pool = `Seq) config inst =
  if not (Instance.is_normalized inst) then
    invalid_arg "Pd_engine: instance must be normalised";
  let g = Instance.graph inst in
  if Graph.n_edges g = 0 then invalid_arg "Pd_engine: graph has no edges";
  start config ~b:(Graph.min_capacity g) (Graph.capacities g) @@ fun y ->
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
  let sel = Selector.create ~pool ~weights inst in
  { capacity = Graph.capacity g;
    demand = (fun i -> (Instance.request inst i).Request.demand);
    value = (fun i -> (Instance.request inst i).Request.value);
    distance = Selector.distance sel;
    is_empty = (fun () -> Selector.is_empty sel);
    select = (fun () -> Selector.select sel);
    update_path =
      (fun ~demand path ->
        consume_residual demand path;
        Selector.update_path sel path);
    remove = Selector.remove sel }

(* Fixed bundles: bid [i]'s one candidate is its bundle. A scan over
   the pending bids (one is, when the loop selects) takes the least
   [distance i /. v_i], Algorithm 2's price bit for bit (not
   [(1/v_i) *. distance i]), and keeps the first minimum. *)
let bundle_source ~capacities ~bundles ~values y =
  let won = Array.make (Array.length bundles) false in
  let distance i = List.fold_left (fun acc u -> acc +. y.(u)) 0.0 bundles.(i) in
  { capacity = (fun u -> capacities.(u)); demand = (fun _ -> 1.0);
    value = (fun i -> values.(i)); distance;
    is_empty = (fun () -> Array.for_all Fun.id won);
    select =
      (fun () ->
        let best = ref (-1) and alpha = ref infinity in
        for i = 0 to Array.length bundles - 1 do
          if not won.(i) then begin
            let a = distance i /. values.(i) in
            if !best < 0 || not (!alpha <= a) then begin
              best := i;
              alpha := a
            end
          end
        done;
        Some { Selector.request = !best; path = bundles.(!best); alpha = !alpha });
    update_path = (fun ~demand:_ _ -> ());
    remove = (fun i -> won.(i) <- true) }

(* Route request [i] on [path]: inflate the duals along it, hand the
   path to the source (which consumes its residual and patches the
   selector) and, without repetitions, retire the request. The loop
   and the counterfactual's replay share this code, so a replayed
   prefix leaves the duals bitwise where the run left them. *)
let commit st i path =
  let src = st.source in
  let demand = src.demand i in
  let d1 = ref st.d1 in
  List.iter
    (fun e ->
      Metrics.incr m_dual_updates;
      let c = src.capacity e in
      let old = st.y.(e) in
      st.y.(e) <- old *. st.config.inflation ~b:st.b ~demand ~capacity:c;
      d1 := !d1 +. (c *. (st.y.(e) -. old)))
    path;
  st.d1 <- !d1;
  Metrics.observe h_path_edges (float_of_int (List.length path));
  src.update_path ~demand path;
  if st.config.remove_selected then begin
    st.d2 <- st.d2 +. src.value i;
    src.remove i
  end

(* The loop, from the current state until its stop rule fires.
   [observe alpha] sees each accepted selection before its dual
   update, i.e. under the duals the selection was made against. *)
let loop ~max_iterations ~observe st =
  let continue = ref true in
  while !continue do
    if st.source.is_empty () then continue := false
    else if
      match st.config.stop with
      | Budget bound -> st.d1 > bound
      | Threshold _ -> false
    then begin
      st.budget_exhausted <- true;
      continue := false
    end
    else begin
      match st.source.select () with
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

(* One run from a fresh state to its stop. *)
let run ~max_iterations st =
  Metrics.incr m_runs;
  loop ~max_iterations ~observe:ignore st;
  let trace = List.rev st.trace in
  let best = List.fold_left (fun acc t -> Float.min acc t.dual_bound) infinity trace in
  { solution =
      List.rev_map (fun t -> { Solution.request = t.selected; path = t.path }) st.trace;
    trace; iterations = st.iterations; final_y = st.y;
    budget_exhausted = st.budget_exhausted;
    (* Claim 3.6 ([infinity] after no iteration), or D2 once every
       routable request won; no certificate for other configs *)
    certified_upper_bound =
      (match st.config with
      | { stop = Budget _; remove_selected = true; respect_residual = false; _ } ->
        if st.budget_exhausted then best else Float.min best st.d2
      | _ -> infinity) }

let execute ?(max_iterations = 1_000_000) ?pool config inst =
  run ~max_iterations (start_paths ?pool config inst)

(* Each bid wins at most once, so the guard is lifted. *)
let execute_bundles config ~capacities ~bundles ~values =
  if config.respect_residual || not config.remove_selected then
    invalid_arg "Pd_engine.execute_bundles: needs remove_selected, no residual";
  run ~max_iterations:max_int
    (start config ~b:(Array.fold_left Float.min infinity capacities)
       (Array.copy capacities) (bundle_source ~capacities ~bundles ~values))

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
  let st = start_paths config inst in
  for j = 0 to k - 1 do
    commit st trace.(j).selected trace.(j).path
  done;
  st.source.remove w;
  st.iterations <- k;
  let c = ref infinity in
  loop ~max_iterations:max_int st ~observe:(fun alpha ->
      c := Float.min !c (demand *. st.source.distance w /. alpha));
  if
    (not st.budget_exhausted)
    && (not (st.d1 > bound))
    && st.source.distance w < infinity
  then 0.0
  else !c
