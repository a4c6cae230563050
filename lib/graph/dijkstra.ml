type tree = { dist : float array; parent_edge : int array }

(* Work accounting (docs/OBSERVABILITY.md): the kernel counts settled
   vertices and relaxations in locals and adds them once per tree, so
   the relaxation loop makes no call into Metrics. *)
let m_runs = Ufp_obs.Metrics.counter "dijkstra.runs"

let m_settled = Ufp_obs.Metrics.counter "dijkstra.settled"

let m_relaxations = Ufp_obs.Metrics.counter "dijkstra.relaxations"

(* Reusable scratch state: the settled marks and the binary heap. The
   heap is written out here, not shared as a module: it orders entries
   lexicographically by (key, vertex id) — see the determinism note in
   the interface — and keeps its keys in a flat float array that the
   inlined push below writes unboxed, which a call into another unit
   could not do under [-opaque]. *)
type workspace = {
  ws_n : int;
  ws_settled : bool array;
  mutable ws_keys : float array;
  mutable ws_verts : int array;
  mutable ws_size : int;
}

let create_workspace g =
  let n = Graph.n_vertices g in
  {
    ws_n = n;
    ws_settled = Array.make (max n 1) false;
    ws_keys = Array.make (max 16 n) 0.0;
    ws_verts = Array.make (max 16 n) 0;
    ws_size = 0;
  }

(* (key, vertex) lexicographic order. Keys are never NaN here, so the
   float primitives order them as [Float.compare] would, without its
   call; inlined, like [swap], so a sift step makes no call. *)
let[@inline] entry_less ws i j =
  let (ki : float) = ws.ws_keys.(i) and (kj : float) = ws.ws_keys.(j) in
  ki < kj || (ki = kj && ws.ws_verts.(i) < ws.ws_verts.(j))

let[@inline] swap ws i j =
  let k = ws.ws_keys.(i) and v = ws.ws_verts.(i) in
  ws.ws_keys.(i) <- ws.ws_keys.(j);
  ws.ws_verts.(i) <- ws.ws_verts.(j);
  ws.ws_keys.(j) <- k;
  ws.ws_verts.(j) <- v

let rec sift_up ws i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_less ws i parent then begin
      swap ws i parent;
      sift_up ws parent
    end
  end

let rec sift_down ws i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < ws.ws_size && entry_less ws l !smallest then smallest := l;
  if r < ws.ws_size && entry_less ws r !smallest then smallest := r;
  if !smallest <> i then begin
    swap ws i !smallest;
    sift_down ws !smallest
  end

let grow ws =
  let cap = 2 * ws.ws_size in
  let keys' = Array.make cap 0.0 and verts' = Array.make cap 0 in
  Array.blit ws.ws_keys 0 keys' 0 ws.ws_size;
  Array.blit ws.ws_verts 0 verts' 0 ws.ws_size;
  ws.ws_keys <- keys';
  ws.ws_verts <- verts'

(* Inlined into the relaxation loop, so [key] is stored into the heap
   without ever being boxed. *)
let[@inline] heap_push ws key v =
  if ws.ws_size = Array.length ws.ws_keys then grow ws;
  ws.ws_keys.(ws.ws_size) <- key;
  ws.ws_verts.(ws.ws_size) <- v;
  ws.ws_size <- ws.ws_size + 1;
  sift_up ws (ws.ws_size - 1)

(* Drop the minimum (slot 0); the caller has read it already. *)
let heap_drop ws =
  ws.ws_size <- ws.ws_size - 1;
  if ws.ws_size > 0 then begin
    ws.ws_keys.(0) <- ws.ws_keys.(ws.ws_size);
    ws.ws_verts.(0) <- ws.ws_verts.(ws.ws_size);
    sift_down ws 0
  end

let shortest_tree_snapshot_into ws g ~snapshot ~src ~dist ~parent_edge =
  let n = Graph.n_vertices g in
  if ws.ws_n <> n then
    invalid_arg "Dijkstra.shortest_tree_into: workspace built for another graph";
  if src < 0 || src >= n then
    invalid_arg "Dijkstra.shortest_tree_into: bad source";
  if Array.length dist <> n || Array.length parent_edge <> n then
    invalid_arg "Dijkstra.shortest_tree_into: output arrays must have length n";
  if Weight_snapshot.length snapshot <> Graph.n_edges g then
    invalid_arg "Dijkstra.shortest_tree_into: snapshot built for another graph";
  let csr = Graph.csr g in
  Array.fill dist 0 n infinity;
  Array.fill parent_edge 0 n (-1);
  Array.fill ws.ws_settled 0 n false;
  ws.ws_size <- 0;
  Ufp_obs.Metrics.incr m_runs;
  let row_start = csr.Graph.Csr.row_start and cells = csr.Graph.Csr.cells in
  let mask = Graph.Csr.Cells.max_packed in
  let settled = ws.ws_settled in
  let n_settled = ref 0 and n_relaxations = ref 0 in
  dist.(src) <- 0.0;
  heap_push ws 0.0 src;
  while ws.ws_size > 0 do
    let d = Array.unsafe_get ws.ws_keys 0
    and u = Array.unsafe_get ws.ws_verts 0 in
    heap_drop ws;
    if not settled.(u) then begin
      settled.(u) <- true;
      incr n_settled;
      (* The relaxation inner loop: one 64-bit load per slot, split
         in place — no call, no closure, no list cell, no validity
         branch (the snapshot was validated when built or patched).
         Slot indices are in range by CSR construction. *)
      let hi = row_start.(u + 1) in
      for k = row_start.(u) to hi - 1 do
        let w = Int64.to_int (Graph.Csr.Cells.unsafe_get64 cells (k lsl 3)) in
        let v = w land mask in
        if not (Array.unsafe_get settled v) then begin
          incr n_relaxations;
          let e = w lsr 32 in
          let d' = d +. Weight_snapshot.unsafe_get snapshot e in
          if d' < Array.unsafe_get dist v then begin
            Array.unsafe_set dist v d';
            Array.unsafe_set parent_edge v e;
            heap_push ws d' v
          end
        end
      done
    end
  done;
  Ufp_obs.Metrics.add m_settled !n_settled;
  Ufp_obs.Metrics.add m_relaxations !n_relaxations

let shortest_tree_into ws g ~weight ~src ~dist ~parent_edge =
  let snapshot = Weight_snapshot.build g ~weight in
  shortest_tree_snapshot_into ws g ~snapshot ~src ~dist ~parent_edge

let shortest_tree g ~weight ~src =
  let n = Graph.n_vertices g in
  if src < 0 || src >= n then invalid_arg "Dijkstra.shortest_tree: bad source";
  let ws = create_workspace g in
  let dist = Array.make n infinity in
  let parent_edge = Array.make n (-1) in
  shortest_tree_into ws g ~weight ~src ~dist ~parent_edge;
  { dist; parent_edge }

let path_of_tree g tree ~src ~dst =
  if Float.equal tree.dist.(dst) infinity then None
  else begin
    let rec walk v acc =
      if v = src then acc
      else begin
        let eid = tree.parent_edge.(v) in
        (* [v] is reachable and not the source, so it has a parent. *)
        assert (eid >= 0);
        walk (Graph.other_endpoint g eid v) (eid :: acc)
      end
    in
    Some (walk dst [])
  end

let shortest_path g ~weight ~src ~dst =
  let tree = shortest_tree g ~weight ~src in
  match path_of_tree g tree ~src ~dst with
  | None -> None
  | Some edges -> Some (tree.dist.(dst), edges)

let reachable g ~src ~dst =
  if src = dst then true
  else begin
    let n = Graph.n_vertices g in
    let csr = Graph.csr g in
    let row_start = csr.Graph.Csr.row_start and cells = csr.Graph.Csr.cells in
    let seen = Array.make n false in
    (* Array-backed FIFO: each vertex enters at most once. *)
    let queue = Array.make n 0 in
    let head = ref 0 and tail = ref 0 in
    seen.(src) <- true;
    queue.(!tail) <- src;
    incr tail;
    let found = ref false in
    while (not !found) && !head < !tail do
      let u = queue.(!head) in
      incr head;
      let hi = row_start.(u + 1) in
      let k = ref row_start.(u) in
      while (not !found) && !k < hi do
        let v = Graph.Csr.Cells.fst cells !k in
        if not seen.(v) then begin
          seen.(v) <- true;
          if v = dst then found := true
          else begin
            queue.(!tail) <- v;
            incr tail
          end
        end;
        incr k
      done
    done;
    !found
  end
