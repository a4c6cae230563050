module Float_tol = Ufp_prelude.Float_tol

type result = { value : float; flow : float array }

(* Residual network: arcs in pairs, arc [a] and its reverse [a lxor 1].
   Adjacency is the Graph.Csr of the arcs ({!Graph.arcs_csr}): vertex
   [u]'s outgoing arcs occupy slots [row_start.(u) ..
   row_start.(u+1) - 1], in arc-insertion order, each slot packing the
   (head vertex, arc index) pair into one 8-byte cell, so the BFS/DFS
   hot loops read one 64-bit word per slot instead of walking cons
   chains. *)
type residual = {
  n : int;
  mutable cap : float array;
  row_start : int array;  (* length n + 1 *)
  cells : Graph.Csr.Cells.t;  (* (head, arc) per slot leaving each vertex *)
  (* Original-edge bookkeeping: for arc [a], [orig.(a)] is the edge id
     it was built from, or -1 for auxiliary (super source/sink) arcs. *)
  orig : int array;
}

let eps = Float_tol.maxflow_eps

(* Work accounting (docs/OBSERVABILITY.md). *)
let m_runs = Ufp_obs.Metrics.counter "maxflow.runs"

let m_phases = Ufp_obs.Metrics.counter "maxflow.phases"

let m_augmentations = Ufp_obs.Metrics.counter "maxflow.augmentations"

let build g ~extra_vertices ~extra_arcs =
  let n = Graph.n_vertices g + extra_vertices in
  let m = Graph.n_edges g in
  let n_arcs = (2 * m) + (2 * List.length extra_arcs) in
  let cap = Array.make (max n_arcs 1) 0.0 in
  let orig = Array.make (max n_arcs 1) (-1) in
  (* Arc [2k] runs u -> v and arc [2k+1] v -> u, for the graph's edges
     in id order, then the auxiliary arcs; the sort keeps each row in
     arc order. *)
  let tails = Array.make n_arcs 0 and heads = Array.make n_arcs 0 in
  let next = ref 0 in
  let add_pair u v cap_uv cap_vu edge_id =
    let a = !next in
    next := a + 2;
    tails.(a) <- u;
    heads.(a) <- v;
    cap.(a) <- cap_uv;
    orig.(a) <- edge_id;
    tails.(a + 1) <- v;
    heads.(a + 1) <- u;
    cap.(a + 1) <- cap_vu;
    orig.(a + 1) <- edge_id
  in
  Graph.fold_edges
    (fun e () ->
      let back = if Graph.is_directed g then 0.0 else e.Graph.capacity in
      add_pair e.Graph.u e.Graph.v e.Graph.capacity back e.Graph.id)
    g ();
  List.iter (fun (u, v, c) -> add_pair u v c 0.0 (-1)) extra_arcs;
  let { Graph.Csr.row_start; cells } = Graph.arcs_csr ~n ~tails ~heads in
  { n; cap; row_start; cells; orig }

let bfs_levels r ~src ~dst =
  let levels = Array.make r.n (-1) in
  (* Array-backed FIFO: each vertex enters at most once. *)
  let queue = Array.make r.n 0 in
  let head = ref 0 and tail = ref 0 in
  levels.(src) <- 0;
  queue.(!tail) <- src;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = r.row_start.(u) to r.row_start.(u + 1) - 1 do
      let w = Int64.to_int (Graph.Csr.Cells.unsafe_get64 r.cells (k lsl 3)) in
      let v = w land Graph.Csr.Cells.max_packed and a = w lsr 32 in
      if r.cap.(a) > eps && levels.(v) < 0 then begin
        levels.(v) <- levels.(u) + 1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  if levels.(dst) < 0 then None else Some levels

(* Blocking-flow DFS; [cursors.(u)] indexes into the packed [cells] row
   of [u], remembering which arcs this phase has exhausted. *)
let rec dfs r levels cursors ~dst u pushed =
  if u = dst then pushed
  else begin
    let k = cursors.(u) in
    if k >= r.row_start.(u + 1) then 0.0
    else begin
      let w = Int64.to_int (Graph.Csr.Cells.unsafe_get64 r.cells (k lsl 3)) in
      let v = w land Graph.Csr.Cells.max_packed and a = w lsr 32 in
      let sent =
        if r.cap.(a) > eps && levels.(v) = levels.(u) + 1 then
          dfs r levels cursors ~dst v (Float.min pushed r.cap.(a))
        else 0.0
      in
      if sent > eps then begin
        r.cap.(a) <- r.cap.(a) -. sent;
        r.cap.(a lxor 1) <- r.cap.(a lxor 1) +. sent;
        sent
      end
      else begin
        cursors.(u) <- k + 1;
        dfs r levels cursors ~dst u pushed
      end
    end
  end

let run_dinic r ~src ~dst =
  Ufp_obs.Metrics.incr m_runs;
  let total = ref 0.0 in
  let continue = ref true in
  while !continue do
    match bfs_levels r ~src ~dst with
    | None -> continue := false
    | Some levels ->
      Ufp_obs.Metrics.incr m_phases;
      let cursors = Array.sub r.row_start 0 r.n in
      let phase = ref true in
      while !phase do
        let sent = dfs r levels cursors ~dst src infinity in
        if sent > eps then begin
          Ufp_obs.Metrics.incr m_augmentations;
          total := !total +. sent
        end
        else phase := false
      done
  done;
  !total

let extract_flows g r =
  let flows = Array.make (Graph.n_edges g) 0.0 in
  (* Arc pairs were inserted in edge order: arcs 2e and 2e+1 belong to
     edge e. Net u->v flow = (cap_bwd - cap_bwd_init + cap_fwd_init -
     cap_fwd)/2 for undirected, cap_fwd_init - cap_fwd for directed. *)
  Graph.fold_edges
    (fun e () ->
      let a = 2 * e.Graph.id in
      assert (r.orig.(a) = e.Graph.id);
      if Graph.is_directed g then flows.(e.Graph.id) <- e.Graph.capacity -. r.cap.(a)
      else begin
        let fwd_used = e.Graph.capacity -. r.cap.(a) in
        let bwd_used = e.Graph.capacity -. r.cap.(a + 1) in
        flows.(e.Graph.id) <- (fwd_used -. bwd_used) /. 2.0
      end)
    g ();
  flows

let max_flow g ~src ~dst =
  let n = Graph.n_vertices g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Maxflow.max_flow: vertex out of range";
  if src = dst then invalid_arg "Maxflow.max_flow: src = dst";
  let r = build g ~extra_vertices:0 ~extra_arcs:[] in
  let value = run_dinic r ~src ~dst in
  { value; flow = extract_flows g r }

let max_flow_multi g ~sources ~sinks =
  let n = Graph.n_vertices g in
  let check (v, c) =
    if v < 0 || v >= n then invalid_arg "Maxflow.max_flow_multi: vertex out of range";
    if not (c > 0.0) then invalid_arg "Maxflow.max_flow_multi: budget <= 0"
  in
  List.iter check sources;
  List.iter check sinks;
  let super_src = n and super_dst = n + 1 in
  let extra_arcs =
    List.map (fun (v, c) -> (super_src, v, c)) sources
    @ List.map (fun (v, c) -> (v, super_dst, c)) sinks
  in
  let r = build g ~extra_vertices:2 ~extra_arcs in
  let value = run_dinic r ~src:super_src ~dst:super_dst in
  { value; flow = extract_flows g r }
