module Graph = Ufp_graph.Graph
module Dijkstra = Ufp_graph.Dijkstra
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution
module Trace = Ufp_obs.Trace

let capacity_slack = Ufp_prelude.Float_tol.capacity_slack

(* Route requests one by one, in the given index order, each on a
   fewest-hop path among edges with residual capacity for its demand. *)
let route_in_order inst order =
  let g = Instance.graph inst in
  let residual = Graph.capacities g in
  let allocate acc i =
    let r = Instance.request inst i in
    let d = r.Request.demand in
    let weight e = if residual.(e) +. capacity_slack >= d then 1.0 else infinity in
    match Dijkstra.shortest_path g ~weight ~src:r.Request.src ~dst:r.Request.dst with
    | Some (len, path) when len < infinity ->
      List.iter (fun e -> residual.(e) <- residual.(e) -. d) path;
      { Solution.request = i; path } :: acc
    | Some _ | None -> acc
  in
  List.rev (Array.fold_left allocate [] order)

let sorted_indices inst cmp =
  let order = Array.init (Instance.n_requests inst) Fun.id in
  Array.sort
    (fun a b ->
      let c = cmp (Instance.request inst a) (Instance.request inst b) in
      if c <> 0 then c else compare a b)
    order;
  order

let greedy_by_density inst =
  let by_density a b =
    Float.compare (b.Request.value /. b.Request.demand) (a.Request.value /. a.Request.demand)
  in
  route_in_order inst (sorted_indices inst by_density)

let greedy_by_value inst =
  let by_value a b = Float.compare b.Request.value a.Request.value in
  route_in_order inst (sorted_indices inst by_value)

let threshold_pd ?(eps = 0.1) ?(pool = `Seq) inst =
  if not (eps > 0.0 && eps <= 1.0) then
    invalid_arg "Baselines.threshold_pd: eps must be in (0, 1]";
  if not (Instance.is_normalized inst) then
    invalid_arg "Baselines.threshold_pd: instance must be normalised";
  let b = Graph.min_capacity (Instance.graph inst) in
  if b < 1.0 then invalid_arg "Baselines.threshold_pd: requires B >= 1";
  Trace.with_span "baselines.threshold_pd" @@ fun () ->
  (* Selected requests leave the pool, so at most |R| iterations: the
     engine's guard is lifted. *)
  (Pd_engine.execute ~max_iterations:max_int ~pool
     (Pd_engine.threshold_rule ~eps ~b) inst)
    .Pd_engine.solution

let randomized_rounding ?eps ~seed inst =
  (Rounding.round ?eps ~seed inst).Rounding.solution
