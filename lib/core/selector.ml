module Graph = Ufp_graph.Graph
module Dijkstra = Ufp_graph.Dijkstra
module Weight_snapshot = Ufp_graph.Weight_snapshot
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Pool = Ufp_par.Pool

(* Cache-economics accounting (docs/OBSERVABILITY.md): cache_hits /
   stale_pops / rebuilds plus heap traffic. A pool builds only the
   trees the lazy path would build, so every counter but par_rebuilds
   is the same under `Seq and `Pool. *)
let m_rebuilds = Ufp_obs.Metrics.counter "selector.tree_rebuilds"

let m_par_rebuilds = Ufp_obs.Metrics.counter "selector.par_rebuilds"

let m_cache_hits = Ufp_obs.Metrics.counter "selector.cache_hits"

let m_cache_misses = Ufp_obs.Metrics.counter "selector.cache_misses"

let m_heap_pushes = Ufp_obs.Metrics.counter "selector.heap_pushes"

let m_heap_pops = Ufp_obs.Metrics.counter "selector.heap_pops"

let m_stale_pops = Ufp_obs.Metrics.counter "selector.stale_pops"

let m_scores = Ufp_obs.Metrics.counter "selector.scores"

type weights =
  | Uniform of (int -> float)
  | Per_demand of (demand:float -> int -> float)

type choice = { request : int; path : int list; alpha : float }

(* One shortest-path-tree cache group: the pending requests that share
   a source and (for demand-dependent weights) a demand, i.e. one
   Dijkstra serves the whole group. *)
type group = {
  src : int;
  weight : int -> float;
  mutable version : int;  (* bumped on every rebuild; 0 until the first *)
  dist : float array;
  parent_edge : int array;
  mutable members : int list;  (* pending request indices, increasing *)
  (* The group's own snapshot under Per_demand weights (each demand
     sees its own residual filtering): built by the group's first
     rebuild, patched by every [update_path] while the group has a
     pending request, dropped once it has none. *)
  mutable snap : Weight_snapshot.t option;
}

type t = {
  graph : Graph.t;
  inst : Instance.t;
  pool : Pool.choice;
  mutable cold : bool;  (* no select has run yet *)
  uniform : bool;  (* all groups share one weight function *)
  groups : group array;  (* in order of first appearance by request *)
  group_of : group array;  (* request index -> its group *)
  pending : bool array;
  mutable n_pending : int;
  (* The one snapshot Uniform weights share across all groups: built
     by the first rebuild, patched by every [update_path]. *)
  mutable uniform_snap : Weight_snapshot.t option;
  ws : Dijkstra.workspace;
  (* Candidate min-heap over (alpha, request, group version), ordered
     lexicographically by (Float.compare alpha, request index). Lazy
     deletion: entries for removed requests or outdated versions are
     discarded / re-scored at pop time. *)
  mutable hk : float array;
  mutable hr : int array;
  mutable hv : int array;
  mutable hsize : int;
}

(* --- candidate heap --- *)

let entry_less t i j =
  let c = Float.compare t.hk.(i) t.hk.(j) in
  c < 0 || (c = 0 && t.hr.(i) < t.hr.(j))

let entry_swap t i j =
  let k = t.hk.(i) and r = t.hr.(i) and v = t.hv.(i) in
  t.hk.(i) <- t.hk.(j);
  t.hr.(i) <- t.hr.(j);
  t.hv.(i) <- t.hv.(j);
  t.hk.(j) <- k;
  t.hr.(j) <- r;
  t.hv.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_less t i parent then begin
      entry_swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.hsize && entry_less t l !smallest then smallest := l;
  if r < t.hsize && entry_less t r !smallest then smallest := r;
  if !smallest <> i then begin
    entry_swap t i !smallest;
    sift_down t !smallest
  end

(* Inlined, so a key read from the heap or computed by [score] is
   stored without being boxed. *)
let[@inline] heap_push t key request version =
  Ufp_obs.Metrics.incr m_heap_pushes;
  if t.hsize = Array.length t.hk then begin
    let cap = max 16 (2 * t.hsize) in
    let hk' = Array.make cap 0.0
    and hr' = Array.make cap 0
    and hv' = Array.make cap 0 in
    Array.blit t.hk 0 hk' 0 t.hsize;
    Array.blit t.hr 0 hr' 0 t.hsize;
    Array.blit t.hv 0 hv' 0 t.hsize;
    t.hk <- hk';
    t.hr <- hr';
    t.hv <- hv'
  end;
  t.hk.(t.hsize) <- key;
  t.hr.(t.hsize) <- request;
  t.hv.(t.hsize) <- version;
  t.hsize <- t.hsize + 1;
  sift_up t (t.hsize - 1)

(* Drop the minimum (slot 0); the caller has read it already. *)
let heap_drop t =
  Ufp_obs.Metrics.incr m_heap_pops;
  t.hsize <- t.hsize - 1;
  if t.hsize > 0 then begin
    t.hk.(0) <- t.hk.(t.hsize);
    t.hr.(0) <- t.hr.(t.hsize);
    t.hv.(0) <- t.hv.(t.hsize);
    sift_down t 0
  end

(* --- construction --- *)

let create ?(pool = `Seq) ~weights inst =
  let graph = Instance.graph inst in
  let n = Graph.n_vertices graph in
  let n_req = Instance.n_requests inst in
  let tbl : (int * float, group) Hashtbl.t = Hashtbl.create 16 in
  let rev_order = ref [] in
  for i = 0 to n_req - 1 do
    let r = Instance.request inst i in
    (* Demand only discriminates when the weight function reads it;
       demands are positive, so 0.0 is a safe uniform sentinel. *)
    let key =
      ( r.Request.src,
        match weights with
        | Uniform _ -> 0.0
        | Per_demand _ -> r.Request.demand )
    in
    match Hashtbl.find_opt tbl key with
    | Some grp -> grp.members <- i :: grp.members
    | None ->
      let weight =
        match weights with
        | Uniform w -> w
        | Per_demand w -> w ~demand:r.Request.demand
      in
      let grp =
        {
          src = r.Request.src;
          weight;
          version = 0;
          dist = Array.make n infinity;
          parent_edge = Array.make n (-1);
          members = [ i ];
          snap = None;
        }
      in
      Hashtbl.add tbl key grp;
      rev_order := grp :: !rev_order
  done;
  let groups = Array.of_list (List.rev !rev_order) in
  Array.iter (fun grp -> grp.members <- List.rev grp.members) groups;
  let group_of =
    if n_req = 0 then [||]
    else begin
      let arr = Array.make n_req groups.(0) in
      Array.iter
        (fun grp -> List.iter (fun i -> arr.(i) <- grp) grp.members)
        groups;
      arr
    end
  in
  (* Force the CSR build on this domain now: the pooled cold fill must
     only ever read the frozen cells, and the graph.csr_builds count
     stays the same whether or not a pool is attached. *)
  ignore (Graph.csr graph);
  let t =
    {
      graph;
      inst;
      pool;
      cold = true;
      uniform = (match weights with Uniform _ -> true | Per_demand _ -> false);
      groups;
      group_of;
      pending = Array.make (max n_req 1) true;
      n_pending = n_req;
      uniform_snap = None;
      ws = Dijkstra.create_workspace graph;
      hk = Array.make (max 16 n_req) 0.0;
      hr = Array.make (max 16 n_req) 0;
      hv = Array.make (max 16 n_req) 0;
      hsize = 0;
    }
  in
  (* Seed the lazy heap: every request re-scores on its first pop
     (neg_infinity sorts before any real score; version -1 never
     matches, forcing the re-score). *)
  for i = 0 to n_req - 1 do
    heap_push t neg_infinity i (-1)
  done;
  t

let n_pending t = t.n_pending

let is_empty t = t.n_pending = 0

(* --- weight snapshots --- *)

(* The snapshot for [grp], built on first use. Every later weight
   change reaches it as a patch in [update_path], so it always equals
   a fresh build. Uniform weights share one snapshot across all
   groups; Per_demand weights get one per group (slot writes are
   race-free under the pool: each group is rebuilt by exactly one
   task). *)
let snapshot_for t grp =
  if t.uniform then begin
    match t.uniform_snap with
    | Some s -> s
    | None ->
      let s = Weight_snapshot.build t.graph ~weight:grp.weight in
      t.uniform_snap <- Some s;
      s
  end
  else begin
    match grp.snap with
    | Some s -> s
    | None ->
      let s = Weight_snapshot.build t.graph ~weight:grp.weight in
      grp.snap <- Some s;
      s
  end

(* --- tree maintenance --- *)

(* A rebuild is split in two: [rebuild_tree] (the Dijkstra — pure
   w.r.t. shared state, safe to fan out across domains with a private
   workspace) and [commit_rebuild] (version bump — always on the
   calling domain, in deterministic group order). *)
let rebuild_tree t grp ws =
  (* A profiler phase (docs/OBSERVABILITY.md): rebuilds dominate the
     selector's cost, and the span records on whichever domain runs
     the rebuild — the tracer is domain-safe. *)
  Ufp_obs.Trace.with_span "selector.rebuild" @@ fun () ->
  let snapshot = snapshot_for t grp in
  Dijkstra.shortest_tree_snapshot_into ws t.graph ~snapshot ~src:grp.src
    ~dist:grp.dist ~parent_edge:grp.parent_edge

let commit_rebuild grp =
  Ufp_obs.Metrics.incr m_rebuilds;
  grp.version <- grp.version + 1

let rebuild t grp =
  rebuild_tree t grp t.ws;
  commit_rebuild grp

(* The cold fill on the pool: build the trees the first [select]
   would build lazily anyway — one per group with a pending request,
   as no tree exists yet — then commit on this domain in array order.
   Each tree counts as the cache miss and the rebuild the lazy path
   counts for it, so every selector.* and dijkstra.* counter but
   selector.par_rebuilds is the same as under `Seq. The trees are
   bitwise identical to sequential rebuilds: each Dijkstra writes only
   its own group's arrays (plus its private workspace) from a
   snapshot equal to a fresh build, and Dijkstra itself is a pure
   function of (CSR, snapshot, src) — see docs/PARALLELISM.md. That
   purity obligation is also machine-checked: ufp-lint's whole-program
   phase (R7/R8) traces this closure's call graph for shared-state
   writes and domain-unsafe calls. *)
let cold_fill t p =
  t.cold <- false;
  let live =
    Array.of_list
      (List.filter (fun grp -> grp.members <> []) (Array.to_list t.groups))
  in
  let n = Array.length live in
  if n > 0 then begin
    if t.uniform then ignore (snapshot_for t live.(0));
    (* One claim per tree: tree costs are skewed (hub sources carry
       far larger frontiers), so an idle executor takes the next tree
       instead of waiting behind a hub. *)
    Pool.parallel_for ~pool:(`Pool p) ~n (fun i ->
        rebuild_tree t live.(i) (Dijkstra.create_workspace t.graph));
    Array.iter
      (fun grp ->
        Ufp_obs.Metrics.incr m_cache_misses;
        Ufp_obs.Metrics.incr m_par_rebuilds;
        commit_rebuild grp)
      live
  end

let update_path t path =
  if t.uniform then begin
    (* Every group holds the same closure, and none owns a snapshot. *)
    match t.uniform_snap with
    | Some s -> Weight_snapshot.patch s ~weight:t.groups.(0).weight path
    | None -> ()
  end
  else
    Array.iter
      (fun grp ->
        match grp.snap with
        | Some s -> Weight_snapshot.patch s ~weight:grp.weight path
        | None -> ())
      t.groups

let remove t i =
  if i < 0 || i >= Instance.n_requests t.inst then
    invalid_arg "Selector.remove: request index out of range";
  (* A second removal of the same request is a no-op: the pending count
     only moves on an actual state change. *)
  if t.pending.(i) then begin
    t.pending.(i) <- false;
    t.n_pending <- t.n_pending - 1;
    let grp = t.group_of.(i) in
    grp.members <- List.filter (fun j -> j <> i) grp.members;
    (* No select rebuilds this group again, so its snapshot would
       only cost patches. *)
    if grp.members = [] then grp.snap <- None
  end

(* --- scoring and selection --- *)

let[@inline] score t grp i =
  Ufp_obs.Metrics.incr m_scores;
  let r = Instance.request t.inst i in
  let d = grp.dist.(r.Request.dst) in
  if Float.equal d infinity then infinity else Request.density r *. d

let path_for t grp i =
  let r = Instance.request t.inst i in
  Option.get
    (Dijkstra.path_of_tree t.graph
       { Dijkstra.dist = grp.dist; parent_edge = grp.parent_edge }
       ~src:grp.src ~dst:r.Request.dst)

(* Whether the tree path from [v] back to the source still reproduces
   its cached distances: at each parent edge [e = (u, v)] the addition
   Dijkstra does, [dist.(u) +. w_e], must give [dist.(v)] bitwise under
   the current snapshot. *)
let rec path_holds g grp snapshot v =
  v = grp.src
  ||
  let e = grp.parent_edge.(v) in
  let u = Graph.other_endpoint g e v in
  Float.equal
    (grp.dist.(u) +. Weight_snapshot.unsafe_get snapshot e)
    grp.dist.(v)
  && path_holds g grp snapshot u

(* Whether [grp]'s built tree still gives request [i] what a fresh
   Dijkstra would (see the interface): an unreachable destination stays
   unreachable as weights grow, and a reachable one needs its path to
   hold. *)
let request_holds t grp i =
  let dst = (Instance.request t.inst i).Request.dst in
  Float.equal grp.dist.(dst) infinity
  || path_holds t.graph grp (snapshot_for t grp) dst

let rec pop_best t =
  if t.hsize = 0 then None
  else begin
    let a = t.hk.(0) and i = t.hr.(0) and ver = t.hv.(0) in
    heap_drop t;
    if not t.pending.(i) then pop_best t
    else begin
      let grp = t.group_of.(i) in
      let holds = grp.version > 0 && request_holds t grp i in
      if holds && ver = grp.version then begin
        (* The popped key came from this tree, and the request's path
           still holds, so the key is its current score. Weights only
           grow, so every other pending entry's key is a lower bound on
           its current score: this is the true (alpha, index) minimum.
           Re-push so the request stays a candidate (it is removed
           separately when selection consumes it). *)
        Ufp_obs.Metrics.incr m_cache_hits;
        heap_push t a i ver;
        Some { request = i; path = path_for t grp i; alpha = a }
      end
      else begin
        Ufp_obs.Metrics.incr m_stale_pops;
        if not holds then begin
          Ufp_obs.Metrics.incr m_cache_misses;
          rebuild t grp
        end;
        let alpha = score t grp i in
        (* An unroutable request stays unroutable under nondecreasing
           weights: drop it from the heap entirely. *)
        if alpha < infinity then heap_push t alpha i grp.version;
        pop_best t
      end
    end
  end

(* [i]'s distance through its group's tree, by the same check a pop
   makes: the cached tree answers while [i]'s own tree path holds, and
   is rebuilt otherwise. A rebuild bumps the group's version, so the
   group's heap entries turn stale and re-score at their next pop. *)
let distance t i =
  if i < 0 || i >= Instance.n_requests t.inst then
    invalid_arg "Selector.distance: request index out of range";
  let grp = t.group_of.(i) in
  if grp.version > 0 && request_holds t grp i then
    Ufp_obs.Metrics.incr m_cache_hits
  else begin
    Ufp_obs.Metrics.incr m_cache_misses;
    rebuild t grp
  end;
  grp.dist.((Instance.request t.inst i).Request.dst)

let select t =
  (* With a pool, the first select fills the cold cache in parallel;
     every later rebuild is lazy, on this domain. *)
  (match t.pool with
  | `Pool p when t.cold -> cold_fill t p
  | `Pool _ | `Seq -> ());
  pop_best t
