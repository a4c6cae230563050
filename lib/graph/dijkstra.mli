(** Single-source shortest paths with nonnegative edge weights.

    The primal-dual solvers of the paper repeatedly need, for every
    pending request [(s_r, t_r)], the path minimising
    [sum_{e in p} y_e] under the current dual weights [y] (Algorithm 1
    line 7, Algorithm 3 line 5). Weights are supplied as a function of
    edge id so the solver can pass its dual array directly.

    With strictly positive weights the returned paths are automatically
    simple, as required by the path set [S_r] of the LP in Figure 1.

    {b Determinism.} Heap ties are broken lexicographically by
    [(distance, vertex id)], and a vertex's parent is the first settled
    in-neighbour that reaches its final distance. With strictly
    positive weights this makes the returned tree a pure function of
    the weight vector — independent of computation history. In
    particular, if every weight is nondecreasing over time and a path
    of a previously computed tree still reproduces that tree's
    distances under the new weights, recomputing returns the same path
    to its endpoint, with bitwise-equal distances along it.
    {!Ufp_core.Selector} relies on exactly this property for its
    per-request cache check. *)

type tree = {
  dist : float array;  (** [dist.(v)] = distance from the source, [infinity] if unreachable *)
  parent_edge : int array;  (** edge id used to enter [v] on a shortest path, [-1] at the source / unreachable vertices *)
}

type workspace
(** Reusable scratch state (settled marks + heap) for repeated
    single-source computations on one graph. A workspace is not
    thread-safe; it is meant to be threaded through a solver loop so
    repeated solves allocate nothing per call. *)

val create_workspace : Graph.t -> workspace
(** Allocate scratch state sized for [g]. The workspace is tied to the
    vertex count of [g]; using it with a graph of a different size
    raises [Invalid_argument]. *)

val shortest_tree_snapshot_into :
  workspace ->
  Graph.t ->
  snapshot:Weight_snapshot.t ->
  src:int ->
  dist:float array ->
  parent_edge:int array ->
  unit
(** [shortest_tree_snapshot_into ws g ~snapshot ~src ~dist
    ~parent_edge] runs a full Dijkstra from [src] over the packed
    {!Graph.csr} adjacency and the pre-validated [snapshot],
    overwriting
    the caller-provided [dist] and [parent_edge] arrays (both of
    length [n_vertices g]). The relaxation inner loop performs flat
    array reads only — no closure calls, no list traversal, no
    per-edge validity checks, no metric updates (the settled and
    relaxation counts are added once per tree). Performs no allocation
    beyond (amortised) heap growth inside [ws] and the one-time CSR
    build: weights are read through the [external]
    {!Weight_snapshot.unsafe_get}, the heap minimum is read in place,
    and the push is inlined, so no float is ever boxed. A test in
    [test/test_graph.ml] pins this: a second tree on a warmed
    workspace over a 40x40 grid allocates zero minor words. Raises
    [Invalid_argument] on a bad [src], mis-sized arrays, or a
    [snapshot] whose length does not match [n_edges g]. This is the
    entry point for callers (the {!Ufp_core.Selector}, {!Ufp_lp.Mcf})
    that reuse one snapshot across several tree computations under
    unchanged weights. *)

val shortest_tree_into :
  workspace ->
  Graph.t ->
  weight:(int -> float) ->
  src:int ->
  dist:float array ->
  parent_edge:int array ->
  unit
(** [shortest_tree_into ws g ~weight ~src ~dist ~parent_edge] builds a
    fresh {!Weight_snapshot} from [weight] and runs
    {!shortest_tree_snapshot_into}. Raises [Invalid_argument] — with
    the edge id in the message — if {e any} edge of [g] has a negative
    or NaN weight (validation happens at snapshot construction, so it
    now covers all edges, not only the traversed ones). *)

val shortest_tree : Graph.t -> weight:(int -> float) -> src:int -> tree
(** Full Dijkstra tree from [src], allocating fresh arrays (a
    convenience wrapper over {!shortest_tree_into}). Raises
    [Invalid_argument] if any edge has a negative or NaN weight
    (validated at snapshot construction). *)

val path_of_tree : Graph.t -> tree -> src:int -> dst:int -> int list option
(** Reconstruct the edge-id path [src -> dst] from a tree, or [None]
    when [dst] is unreachable. [Some []] when [src = dst]. *)

val shortest_path :
  Graph.t -> weight:(int -> float) -> src:int -> dst:int ->
  (float * int list) option
(** [shortest_path g ~weight ~src ~dst] is [Some (length, edges)] for a
    minimum-weight path, [None] if [dst] is unreachable. Ties are
    broken deterministically by [(distance, vertex id)] order. *)

val reachable : Graph.t -> src:int -> dst:int -> bool
(** Unweighted reachability (BFS). *)
