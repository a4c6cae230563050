let log_src =
  Logs.Src.create "ufp.bounded-ufp-repeat" ~doc:"Algorithm 3 tracing"

module Log = (val Logs.src_log log_src)

module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution
module Metrics = Ufp_obs.Metrics
module Trace = Ufp_obs.Trace

(* Shared pd.* catalogue — see Pd_engine. *)
let m_runs = Metrics.counter "pd.runs"

let m_iterations = Metrics.counter "pd.iterations"

let m_dual_updates = Metrics.counter "pd.dual_updates"

let g_d1_growth = Metrics.gauge "pd.d1_growth"

let h_path_edges = Metrics.histogram "pd.path_edges"

type run = {
  solution : Solution.t;
  final_y : float array;
  certified_upper_bound : float;
  iterations : int;
}

let theorem_ratio ~eps = 1.0 +. (6.0 *. eps)

let run ?(eps = 0.1) ?(selector = `Incremental) ?(pool = `Seq) inst =
  if not (eps > 0.0 && eps <= 1.0) then
    invalid_arg "Bounded_ufp_repeat: eps must be in (0, 1]";
  if Instance.n_requests inst = 0 then
    invalid_arg "Bounded_ufp_repeat: no requests";
  if Graph.n_edges (Instance.graph inst) = 0 then
    invalid_arg "Bounded_ufp_repeat: graph has no edges";
  if not (Instance.is_normalized inst) then
    invalid_arg "Bounded_ufp_repeat: instance must be normalised";
  let g = Instance.graph inst in
  let b = Graph.min_capacity g in
  if b < 1.0 then invalid_arg "Bounded_ufp_repeat: requires B >= 1";
  Metrics.incr m_runs;
  Trace.with_span "bounded_ufp_repeat.run" @@ fun () ->
  let m = Graph.n_edges g in
  let budget = exp (eps *. (b -. 1.0)) in
  let y = Array.init m (fun e -> 1.0 /. Graph.capacity g e) in
  let d = ref (float_of_int m) in
  (* Every request stays live forever (the with-repetitions problem),
     so the selector pool is never shrunk. *)
  let sel =
    Selector.create ~kind:selector ~pool
      ~weights:(Selector.Uniform (fun e -> y.(e)))
      inst
  in
  let solution = ref [] in
  let iterations = ref 0 in
  let best_bound = ref infinity in
  let continue = ref true in
  while !continue do
    if !d > budget then continue := false
    else begin
      match Selector.select sel with
      | None -> continue := false (* no request is routable at all *)
      | Some { Selector.request = i; path; alpha } ->
        incr iterations;
        Metrics.incr m_iterations;
        if Trace.is_on () then
          Trace.instant "pd.select"
            ~args:[ ("request", Trace.Int i); ("alpha", Trace.Float alpha) ];
        let r = Instance.request inst i in
        (* Claim 5.2: y / alpha is feasible for the Figure 5 dual, so
           D / alpha upper-bounds the with-repetitions optimum. *)
        if alpha > 0.0 then best_bound := Float.min !best_bound (!d /. alpha);
        let d_before = !d in
        List.iter
          (fun e ->
            Metrics.incr m_dual_updates;
            let c = Graph.capacity g e in
            let old = y.(e) in
            y.(e) <- old *. exp (eps *. b *. r.Request.demand /. c);
            d := !d +. (c *. (y.(e) -. old)))
          path;
        Metrics.gauge_add g_d1_growth (!d -. d_before);
        Metrics.observe h_path_edges (float_of_int (List.length path));
        Selector.update_path sel path;
        solution := { Solution.request = i; path } :: !solution
    end
  done;
  let solution = List.rev !solution in
  Log.info (fun m -> m "done: %d iterations (with repetitions)" !iterations);
  let certified_upper_bound =
    if Float.equal !best_bound infinity then Solution.value inst solution else !best_bound
  in
  { solution; final_y = y; certified_upper_bound; iterations = !iterations }

let solve ?eps ?selector ?pool inst = (run ?eps ?selector ?pool inst).solution
