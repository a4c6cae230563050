module Graph = Ufp_graph.Graph
module Dijkstra = Ufp_graph.Dijkstra
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Float_tol = Ufp_prelude.Float_tol

let check_lengths inst ~y ~z =
  let g = Instance.graph inst in
  if Array.length y <> Graph.n_edges g then
    invalid_arg "Duality: y length must equal the number of edges";
  match z with
  | Some z when Array.length z <> Instance.n_requests inst ->
    invalid_arg "Duality: z length must equal the number of requests"
  | _ -> ()

(* D1 = sum_e c_e y_e, summed in increasing edge id. *)
let edge_term inst y =
  let caps = Graph.capacities (Instance.graph inst) in
  let d1 = ref 0.0 in
  for e = 0 to Array.length caps - 1 do
    d1 := !d1 +. (caps.(e) *. y.(e))
  done;
  !d1

let dual_objective inst ~y ~z =
  check_lengths inst ~y ~z:(Some z);
  let d1 = edge_term inst y in
  let d2 = Array.fold_left ( +. ) 0.0 z in
  d1 +. d2

let dual_objective_repeat inst ~y =
  check_lengths inst ~y ~z:None;
  edge_term inst y

(* Shortest-path distances under weights [y], one Dijkstra per distinct
   source among the requests. *)
let distances inst ~y =
  let g = Instance.graph inst in
  let trees = Hashtbl.create 16 in
  let tree_for src =
    match Hashtbl.find_opt trees src with
    | Some t -> t
    | None ->
      let t = Dijkstra.shortest_tree g ~weight:(fun e -> y.(e)) ~src in
      Hashtbl.add trees src t;
      t
  in
  fun (r : Request.t) ->
    let t = tree_for r.Request.src in
    t.Dijkstra.dist.(r.Request.dst)

let min_constraint_slack inst ~y ~z =
  check_lengths inst ~y ~z:(Some z);
  let dist = distances inst ~y in
  let slack i (r : Request.t) =
    let d = dist r in
    if Float.equal d infinity then infinity
    else z.(i) +. (r.Request.demand *. d) -. r.Request.value
  in
  let best = ref infinity in
  Array.iteri
    (fun i r -> best := Float.min !best (slack i r))
    (Instance.requests inst);
  !best

let dual_feasible ?(eps = Float_tol.default_eps) inst ~y ~z =
  Array.for_all (fun v -> v >= -.eps) y
  && Array.for_all (fun v -> v >= -.eps) z
  && min_constraint_slack inst ~y ~z >= -.eps

let dual_feasible_repeat ?eps inst ~y =
  let z = Array.make (Instance.n_requests inst) 0.0 in
  dual_feasible ?eps inst ~y ~z

let scaled_dual_bound inst ~y ~z =
  check_lengths inst ~y ~z:(Some z);
  let d1 = edge_term inst y in
  let d2 = Array.fold_left ( +. ) 0.0 z in
  let dist = distances inst ~y in
  (* The scaled dual (y / alpha, z) is feasible iff for every request
     with residual value v_r - z_r > 0 and a reachable target,
     alpha <= d_r * dist / (v_r - z_r). *)
  let alpha_star = ref infinity in
  Array.iteri
    (fun i (r : Request.t) ->
      let residual = r.Request.value -. z.(i) in
      if residual > 0.0 then begin
        let d = dist r in
        if d < infinity then
          alpha_star := Float.min !alpha_star (r.Request.demand *. d /. residual)
      end)
    (Instance.requests inst);
  if Float.equal !alpha_star infinity then d2 (* z alone covers every constraint *)
  else if !alpha_star <= 0.0 then infinity
  else (d1 /. !alpha_star) +. d2
