module Float_tol = Ufp_prelude.Float_tol

type result = { value : float; flow : float array }

(* Residual network: arcs in pairs, arc [a] and its reverse [a lxor 1].
   Adjacency is CSR-style flat slots (mirroring Graph.Csr): vertex
   [u]'s outgoing arcs occupy slots [adj_start.(u) ..
   adj_start.(u+1) - 1], in arc-insertion order, each slot carrying
   the (arc index, head vertex) pair packed to an 8-byte cell of
   Graph.Csr.Cells, so the BFS/DFS hot loops read one 64-bit word per
   slot instead of walking cons chains. *)
type residual = {
  n : int;
  mutable cap : float array;
  adj_start : int array;  (* length n + 1 *)
  adj : Graph.Csr.Cells.t;  (* (arc, head) per slot leaving each vertex *)
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
  (* Two passes, like Graph.build_csr: count per-vertex out-degrees,
     prefix-sum into row offsets, then fill in arc order so each row
     is pinned to insertion order. *)
  let adj_start = Array.make (n + 1) 0 in
  let count u = adj_start.(u + 1) <- adj_start.(u + 1) + 1 in
  let each_pair f =
    Graph.fold_edges
      (fun e () ->
        if Graph.is_directed g then
          f e.Graph.u e.Graph.v e.Graph.capacity 0.0 e.Graph.id
        else f e.Graph.u e.Graph.v e.Graph.capacity e.Graph.capacity e.Graph.id)
      g ();
    List.iter (fun (u, v, c) -> f u v c 0.0 (-1)) extra_arcs
  in
  each_pair (fun u v _ _ _ ->
      count u;
      count v);
  for u = 1 to n do
    adj_start.(u) <- adj_start.(u) + adj_start.(u - 1)
  done;
  let n_slots = max adj_start.(n) 1 in
  let adj_arc = Array.make n_slots 0 in
  let adj_head = Array.make n_slots 0 in
  let cursor = Array.make (max n 1) 0 in
  Array.blit adj_start 0 cursor 0 n;
  let next = ref 0 in
  each_pair (fun u v cap_uv cap_vu edge_id ->
      let a = !next in
      next := !next + 2;
      cap.(a) <- cap_uv;
      orig.(a) <- edge_id;
      adj_arc.(cursor.(u)) <- a;
      adj_head.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1;
      cap.(a + 1) <- cap_vu;
      orig.(a + 1) <- edge_id;
      adj_arc.(cursor.(v)) <- a + 1;
      adj_head.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1);
  { n; cap; adj_start; adj = Graph.Csr.Cells.pack adj_arc adj_head; orig }

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
    for k = r.adj_start.(u) to r.adj_start.(u + 1) - 1 do
      let w = Int64.to_int (Graph.Csr.Cells.unsafe_get64 r.adj (k lsl 3)) in
      let a = w land Graph.Csr.Cells.max_packed and v = w lsr 32 in
      if r.cap.(a) > eps && levels.(v) < 0 then begin
        levels.(v) <- levels.(u) + 1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  if levels.(dst) < 0 then None else Some levels

(* Blocking-flow DFS; [cursors.(u)] indexes into the packed [adj] row
   of [u], remembering which arcs this phase has exhausted. *)
let rec dfs r levels cursors ~dst u pushed =
  if u = dst then pushed
  else begin
    let k = cursors.(u) in
    if k >= r.adj_start.(u + 1) then 0.0
    else begin
      let w = Int64.to_int (Graph.Csr.Cells.unsafe_get64 r.adj (k lsl 3)) in
      let a = w land Graph.Csr.Cells.max_packed and v = w lsr 32 in
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
      let cursors = Array.sub r.adj_start 0 r.n in
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
