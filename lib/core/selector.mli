(** The request-selection engine shared by every primal-dual loop.

    Each iteration of Algorithm 1, Algorithm 3, the BKV-style threshold
    rule and the {!Pd_engine} design space performs the same step:
    among the pending requests, find the one minimising the normalised
    shortest-path length [alpha(r) = (d_r / v_r) sum_{e in p} w_e]
    under the current edge weights, ties towards the lowest request
    index. Recomputing one Dijkstra per pending source on every
    iteration makes a solve
    [O(iterations x sources x (m + n log n))] even though a dual update
    only inflates the few edges of the selected path. This module
    performs that step with cached shortest-path trees, a check of each
    popped request's own tree path, and a lazy-deletion candidate
    heap.

    {b Contract: weights must be nondecreasing over time} (duals only
    inflate, residuals only shrink — true for every rule in this
    repository). Under that contract {!select} returns {e exactly} what
    a fresh Dijkstra per pending request would: the same request, the
    same path, a bitwise-equal alpha. The argument:

    + A cached tree answers for a request as long as the request's
      {e own} tree path holds. Requests that share a source (and,
      under Per_demand weights, a demand) form a group with one cached
      tree. When a request is popped, its path is walked by parent
      edges from [dst] back to [src]: for every edge [e = (u, v)] on
      it, [dist.(u) +. w_e] under the current weights (the addition
      Dijkstra does) must equal the cached [dist.(v)] bitwise. An
      unreachable destination stays unreachable as weights grow, so it
      always holds. The tree is rebuilt only when the check fails,
      never because a dual update touched some other part of it. When
      the path holds, a fresh Dijkstra returns the same path with a
      bitwise-equal alpha. Weights only grow, so no distance can drop.
      The path still achieves its cached values, so the distances
      along it cannot rise either. Any arc that achieves a path
      vertex's distance now also achieved it when the tree was built.
      {!Ufp_graph.Dijkstra} settles vertices in [(dist, vertex id)]
      order and keeps the first arc that reaches a vertex's final
      distance. The cached parent's tail lies on the path and keeps
      its settle key, while any other tail's key can only have grown.
      So the cached parent edge is still the first tied arc, at every
      vertex of the path. The check costs [O(|path|)] per pop, and
      {!update_path} touches no tree.
    + Heap keys are scores computed at earlier (hence pointwise lower)
      weights, so they are lower bounds on the current scores. A
      popped entry is current when its key came from the group's
      present tree (the group's version) and its path holds; then its
      key is its current score, and it is the true minimum. A popped
      stale entry is re-scored, against a rebuilt tree if its path no
      longer holds, and re-pushed, never skipped.
    + Ties break by [(Float.compare alpha, request index)], the order
      of a scan over the pending requests.

    Two QCheck laws in [test/test_core.ml] enforce the contract: a
    direct law drives {!create}, {!select}, {!update_path} and
    {!remove} under random weight growth and removals and compares
    every selection with a fresh-Dijkstra scan, and the engine law
    holds {!Pd_engine} bitwise equal to [pd_oracle], a literal
    transcription of the loop that never uses this module. The
    Theorem 3.1 approximation and the Lemma 3.4 monotonicity /
    truthfulness guarantees — statements about the selection order —
    therefore hold for the cached engine.

    {b Weight snapshots.} Tree (re)computations run over the
    packed {!Ufp_graph.Graph.csr} with a {!Ufp_graph.Weight_snapshot}.
    Uniform weights share one snapshot across all groups, built once
    by the first rebuild; Per_demand weights keep one per group, built
    by the group's first rebuild and dropped once the group has no
    pending request. Every {!update_path} announcement patches each
    live snapshot on exactly the announced edges, in [O(|path|)]
    rather than an [O(m)] rebuild. Only announced edges change, so a
    patched snapshot is bitwise equal to a fresh build and stale
    weights can never leak into a rebuild or a path check.
    [dijkstra.snapshot_builds] therefore counts one build per Uniform
    selector or per rebuilt Per_demand group, and
    [dijkstra.snapshot_patched_edges] one per announced edge per live
    snapshot.

    {b Parallel cold fill.} With [?pool:(`Pool p)], the first {!select}
    builds the trees it would build lazily anyway — one per group with
    a pending request — across the {!Ufp_par.Pool} (each task gets a
    private Dijkstra workspace; version bumps stay on the calling
    domain, in group order). Every
    later rebuild stays lazy, on the calling domain. Trees are bitwise
    identical to sequential rebuilds — Dijkstra is a pure function of
    (CSR, snapshot, source) — so selections are too; both QCheck
    laws run under [`Seq] and a 2-domain pool. A pooled run does
    exactly the sequential work: every [selector.*] and [dijkstra.*]
    counter is the same as under [`Seq], except
    [selector.par_rebuilds], which counts the cold-fill trees built on
    the pool. *)

type weights =
  | Uniform of (int -> float)
      (** request-independent weights (Algorithm 1 / 3: [fun e -> y.(e)]);
          one cached tree per distinct source *)
  | Per_demand of (demand:float -> int -> float)
      (** weights that read the request's demand (residual-capacity
          filtering); one cached tree per distinct (source, demand) *)

type choice = {
  request : int;  (** the selected request index *)
  path : int list;  (** its minimum-weight path, as edge ids *)
  alpha : float;  (** its normalised length [(d/v) |p|_w] *)
}

type t

val create :
  ?pool:Ufp_par.Pool.choice ->
  weights:weights ->
  Ufp_instance.Instance.t ->
  t
(** A selector over all requests of the instance, all initially
    pending. [pool] (default [`Seq]) builds the first {!select}'s
    cold-fill trees across domains, with bitwise-identical trees (see
    the module preamble). The weight functions are read at a
    snapshot's first build, over every edge, and at each
    {!update_path}, over the announced edges — so passing closures
    over the solver's mutable dual array is the intended usage; but
    every weight change must be announced through {!update_path}.
    Weight functions must be safe to call from worker
    domains when a pool is attached (the repo's closures only read
    solver arrays that are quiescent during selection). *)

val select : t -> choice option
(** The pending request minimising [(alpha, index)] lexicographically
    (NaN-safe via [Float.compare]; NaN weights themselves are rejected
    by Dijkstra), or [None] when no pending request is routable.
    Does not remove the winner: call {!remove} to consume it. *)

val distance : t -> int -> float
(** [distance t i] is request [i]'s current shortest-path length
    [sum_{e in p} w_e] ([infinity] when unroutable), bitwise what a
    fresh Dijkstra returns, whether [i] is pending or removed. It reads
    [i]'s group tree while [i]'s own tree path still reproduces the
    cached distances, the check {!select} makes at a pop, and rebuilds
    the tree otherwise (counted as a [selector.cache_hits] or a
    [selector.cache_misses] and [selector.tree_rebuilds]). A rebuild
    leaves every later {!select} exact: the group's heap entries only
    re-score. {!Pd_engine.counterfactual} reads a removed winner's
    length through it once per iteration. Raises [Invalid_argument] on
    an out-of-range index. *)

val update_path : t -> int list -> unit
(** [update_path t p] announces that the weights of the edges of [p]
    changed (grew). Re-reads those edges' weights into every live
    weight snapshot, in [O(|p|)] per snapshot. It leaves the cached
    trees alone: a tree is rebuilt only when {!select} pops a request
    whose own tree path no longer reproduces its cached distances
    (see the module preamble). Must be called after every
    dual/residual update — the weight functions must already return
    the new weights — and before the next {!select}. *)

val remove : t -> int -> unit
(** Remove a request from the pending pool. Removing an
    already-removed request is a no-op — the pending count only
    decrements on an actual removal. Raises [Invalid_argument] on an
    out-of-range index. *)

val n_pending : t -> int
(** Number of requests still pending. *)

val is_empty : t -> bool
(** [n_pending t = 0]. *)
