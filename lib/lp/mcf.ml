let log_src = Logs.Src.create "ufp.mcf" ~doc:"Garg-Konemann fractional solver"

module Log = (val Logs.src_log log_src)

module Graph = Ufp_graph.Graph
module Dijkstra = Ufp_graph.Dijkstra
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request

type path_flow = { pf_request : int; pf_path : int list; pf_amount : float }

type result = {
  feasible_value : float;
  upper_bound : float;
  flow : path_flow list;
  iterations : int;
}

(* Accumulated raw flow, keyed by (request, path).  The key is
   float-free, and both operations are structural: the table must
   iterate identically across runs for the solver's flow output to be
   deterministic (ufp-lint R3). *)
module Key = struct
  type t = int * int list

  let equal (r1, p1) (r2, p2) = Int.equal r1 r2 && List.equal Int.equal p1 p2

  let hash (r, p) =
    List.fold_left (fun acc e -> (31 * acc) + e + 1) (r + 1) p land max_int
end

module Flow_table = Hashtbl.Make (Key)

let solve ?(eps = 0.1) inst =
  if not (eps > 0.0 && eps < 1.0) then invalid_arg "Mcf.solve: eps must be in (0,1)";
  let g = Instance.graph inst in
  let m = Graph.n_edges g in
  let n_req = Instance.n_requests inst in
  let requests = Instance.requests inst in
  let n_rows = m + n_req in
  if m = 0 || n_req = 0 then
    { feasible_value = 0.0; upper_bound = 0.0; flow = []; iterations = 0 }
  else begin
    let delta =
      (1.0 +. eps) /. (((1.0 +. eps) *. float_of_int n_rows) ** (1.0 /. eps))
    in
    (* Row duals: y.(e) for edges, zr.(r) for the per-request rows. *)
    let caps = Graph.capacities g in
    let y = Array.copy caps in
    for e = 0 to m - 1 do
      y.(e) <- delta /. caps.(e)
    done;
    let zr = Array.make n_req delta in
    let dual_total () =
      let d1 = ref 0.0 in
      for e = 0 to m - 1 do
        d1 := !d1 +. (caps.(e) *. y.(e))
      done;
      !d1 +. Array.fold_left ( +. ) 0.0 zr
    in
    (* Requests grouped by source so each iteration runs one Dijkstra
       per distinct source. *)
    let by_source = Hashtbl.create 16 in
    Array.iteri
      (fun i (r : Request.t) ->
        let cur =
          Option.value ~default:[] (Hashtbl.find_opt by_source r.Request.src)
        in
        Hashtbl.replace by_source r.Request.src ((i, r) :: cur))
      requests;
    let weight e = y.(e) in
    (* One reusable Dijkstra workspace plus one weight snapshot for the
       whole solve: the duals are fixed during a best-column search, so
       every distinct source prices against the same vector over the
       CSR, and a dual update inflates only the routed path's
       edges, so patching those keeps the snapshot equal to a fresh
       build. *)
    let snapshot = Ufp_graph.Weight_snapshot.build g ~weight in
    let ws = Dijkstra.create_workspace g in
    let dist = Array.make (Graph.n_vertices g) infinity in
    let parent_edge = Array.make (Graph.n_vertices g) (-1) in
    (* Best (request, path) column: minimises
       (zr_r + d_r * dist) / v_r. *)
    let best_column () =
      let best = ref None in
      Hashtbl.iter
        (fun src group ->
          Dijkstra.shortest_tree_snapshot_into ws g ~snapshot ~src ~dist
            ~parent_edge;
          let tree = { Dijkstra.dist; parent_edge } in
          let consider (i, (r : Request.t)) =
            let dist = tree.Dijkstra.dist.(r.Request.dst) in
            if dist < infinity then begin
              let len = zr.(i) +. (r.Request.demand *. dist) in
              let ratio = len /. r.Request.value in
              match !best with
              | Some (best_ratio, _, _) when best_ratio <= ratio -> ()
              | _ ->
                let path =
                  Option.get
                    (Dijkstra.path_of_tree g tree ~src ~dst:r.Request.dst)
                in
                best := Some (ratio, i, path)
            end
          in
          List.iter consider group)
        by_source;
      !best
    in
    let raw = Flow_table.create 64 in
    let add_raw i path f =
      let key = (i, path) in
      let cur = Option.value ~default:0.0 (Flow_table.find_opt raw key) in
      Flow_table.replace raw key (cur +. f)
    in
    let raw_value = ref 0.0 in
    let upper = ref infinity in
    let iterations = ref 0 in
    let continue = ref true in
    while !continue do
      match best_column () with
      | None -> continue := false
      | Some (alpha, i, path) ->
        let d = dual_total () in
        upper := Float.min !upper (d /. alpha);
        if d >= 1.0 then continue := false
        else begin
          incr iterations;
          let r = requests.(i) in
          let dr = r.Request.demand in
          (* Bottleneck amount in x units: the request row caps at 1,
             edge row e caps at c_e / d_r. *)
          let f =
            List.fold_left
              (fun acc e -> Float.min acc (caps.(e) /. dr))
              1.0 path
          in
          add_raw i path f;
          raw_value := !raw_value +. (f *. r.Request.value);
          List.iter
            (fun e ->
              y.(e) <- y.(e) *. (1.0 +. (eps *. f *. dr /. caps.(e))))
            path;
          Ufp_graph.Weight_snapshot.patch snapshot ~weight path;
          zr.(i) <- zr.(i) *. (1.0 +. (eps *. f))
        end
    done;
    (* Scale the accumulated flow down to feasibility: every row's raw
       usage is at most b_i * log_{1+eps}((1+eps)/delta). *)
    let scale = log ((1.0 +. eps) /. delta) /. log (1.0 +. eps) in
    let flow =
      Flow_table.fold
        (fun (i, path) amount acc ->
          if amount > 0.0 then
            { pf_request = i; pf_path = path; pf_amount = amount /. scale }
            :: acc
          else acc)
        raw []
    in
    let feasible_value = !raw_value /. scale in
    let upper_bound =
      if Float.equal !upper infinity then
        (* No routable request: OPT_LP = 0. *)
        0.0
      else !upper
    in
    Log.info (fun m ->
        m "done: %d oracle iterations, interval [%.6g, %.6g]" !iterations
          feasible_value upper_bound);
    { feasible_value; upper_bound; flow; iterations = !iterations }
  end

let fractional_opt_interval ?eps inst =
  let r = solve ?eps inst in
  (r.feasible_value, r.upper_bound)
