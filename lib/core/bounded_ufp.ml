let log_src = Logs.Src.create "ufp.bounded-ufp" ~doc:"Algorithm 1 (Bounded-UFP) tracing"

module Log = (val Logs.src_log log_src)

module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution
module Metrics = Ufp_obs.Metrics
module Trace = Ufp_obs.Trace

(* Same catalogue as Pd_engine: registration is idempotent by name, so
   every primal-dual loop accumulates into the shared pd.* counters. *)
let m_runs = Metrics.counter "pd.runs"

let m_iterations = Metrics.counter "pd.iterations"

let m_dual_updates = Metrics.counter "pd.dual_updates"

let g_d1_growth = Metrics.gauge "pd.d1_growth"

let h_path_edges = Metrics.histogram "pd.path_edges"

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
  final_y : float array;
  final_z : float array;
  budget_exhausted : bool;
  certified_upper_bound : float;
  iterations : int;
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

let run ?(eps = 0.1) ?(selector = `Incremental) ?(pool = `Seq) inst =
  let b = validate inst ~eps in
  Metrics.incr m_runs;
  Trace.with_span "bounded_ufp.run" @@ fun () ->
  let g = Instance.graph inst in
  let m = Graph.n_edges g in
  let budget = budget ~eps ~b in
  let y = Array.init m (fun e -> 1.0 /. Graph.capacity g e) in
  let z = Array.make (Instance.n_requests inst) 0.0 in
  let d1 = ref (float_of_int m) (* sum_e c_e / c_e *) in
  let d2 = ref 0.0 in
  (* The selection step — the request minimising (d_r / v_r) |p_r|,
     ties towards the lowest request index — is owned by Selector. *)
  let sel =
    Selector.create ~kind:selector ~pool
      ~weights:(Selector.Uniform (fun e -> y.(e)))
      inst
  in
  let solution = ref [] in
  let trace = ref [] in
  let iterations = ref 0 in
  let best_bound = ref infinity in
  let budget_exhausted = ref false in
  let continue = ref true in
  while !continue do
    if Selector.is_empty sel then continue := false
    else if !d1 > budget then begin
      budget_exhausted := true;
      continue := false
    end
    else begin
      match Selector.select sel with
      | None ->
        (* Remaining requests are unroutable in the graph (disconnected
           source/target); they can never be allocated. *)
        continue := false
      | Some { Selector.request = i; path; alpha } ->
        incr iterations;
        Metrics.incr m_iterations;
        Log.debug (fun m ->
            m "iteration %d: select request %d (alpha %.6g, %d edges)"
              !iterations i alpha (List.length path));
        if Trace.is_on () then
          Trace.instant "pd.select"
            ~args:[ ("request", Trace.Int i); ("alpha", Trace.Float alpha) ];
        let r = Instance.request inst i in
        (* Claim 3.6 certificate, using the duals before the update. *)
        let bound =
          if alpha > 0.0 then (!d1 /. alpha) +. !d2 else infinity
        in
        best_bound := Float.min !best_bound bound;
        let d1_before = !d1 in
        (* Dual update: y_e <- y_e * exp(eps B d_r / c_e). *)
        List.iter
          (fun e ->
            Metrics.incr m_dual_updates;
            let c = Graph.capacity g e in
            let old = y.(e) in
            y.(e) <- old *. exp (eps *. b *. r.Request.demand /. c);
            d1 := !d1 +. (c *. (y.(e) -. old)))
          path;
        Metrics.gauge_add g_d1_growth (!d1 -. d1_before);
        Metrics.observe h_path_edges (float_of_int (List.length path));
        Selector.update_path sel path;
        z.(i) <- r.Request.value;
        d2 := !d2 +. r.Request.value;
        Selector.remove sel i;
        solution := { Solution.request = i; path } :: !solution;
        trace :=
          {
            iteration = !iterations;
            selected = i;
            path;
            alpha;
            d1 = !d1;
            dual_bound = bound;
          }
          :: !trace
    end
  done;
  let solution = List.rev !solution in
  let value = Solution.value inst solution in
  Log.info (fun m ->
      m "done: %d iterations, value %.6g, budget_exhausted %b" !iterations value
        !budget_exhausted);
  let certified_upper_bound =
    if !budget_exhausted then
      (* Claim 3.6 certificates were collected per iteration; with zero
         iterations (budget below m: the Theorem 3.1 premise fails)
         there is no certificate at all. *)
      !best_bound
    else
      (* Every routable request was allocated: the solution value is
         itself an upper bound on what any allocation can achieve among
         routable requests, and unroutable ones contribute nothing. *)
      Float.min !best_bound value
  in
  {
    solution;
    trace = List.rev !trace;
    final_y = y;
    final_z = z;
    budget_exhausted = !budget_exhausted;
    certified_upper_bound;
    iterations = !iterations;
  }

let solve ?eps ?selector ?pool inst = (run ?eps ?selector ?pool inst).solution
