(** Per-edge weight vectors for the shortest-path hot loop.

    The solvers supply weights as closures over their mutable dual
    state ([fun e -> y.(e)], residual filters, ...). Calling such a
    closure once per Dijkstra relaxation — plus the NaN/negativity
    guard that must follow it — is pure per-relaxation overhead: the
    weight vector cannot change {e during} one tree computation, only
    between computations. A snapshot materialises the closure into an
    unboxed [floatarray] once and validates every entry up front, so
    the relaxation loop is reduced to two flat-array loads and an
    add.

    Validation at build time is also {e stricter} than the old
    per-relaxation check: every edge of the graph is validated, not
    just the edges a particular traversal happens to relax. [infinity]
    is a legal weight (the residual filters use it to price out edges
    that cannot fit a demand); NaN and negative weights raise
    [Invalid_argument] naming the offending edge id.

    Lifetime: a snapshot stays valid for the graph it was built from
    (edge ids are dense and append-only). It is mutable only through
    {!patch}: it goes {e stale} — silently — the moment the underlying
    duals/residuals move, and the caller must {!patch} exactly the
    edges whose weights moved (or build afresh) before the next tree
    computation. A primal-dual update inflates only the edges of the
    selected path, so a patch costs [O(|path|)] where a build costs
    [O(m)]. {!Ufp_core.Selector} patches its snapshots in its
    [update_path] announcement; {!Ufp_lp.Mcf} patches the routed path
    after each dual update. *)

type t
(** A per-edge weight vector: slot [e] holds the weight of edge id [e]
    as of its last build or patch. Unboxed ([floatarray]). *)

val build : Graph.t -> weight:(int -> float) -> t
(** [build g ~weight] evaluates [weight e] for every edge id of [g],
    in increasing id order. Raises [Invalid_argument] with the edge id
    in the message on a NaN or negative weight ([infinity] is
    allowed). Counted by [dijkstra.snapshot_builds]. *)

val patch : t -> weight:(int -> float) -> int list -> unit
(** [patch s ~weight edges] re-evaluates [weight e] for each listed
    edge, in list order, with {!build}'s checks and messages (a
    repeated edge is simply evaluated again). When [weight] agrees
    with the snapshot's weights on every unlisted edge, the patched
    snapshot is bitwise equal to [build g ~weight] — a QCheck law in
    [test/test_graph.ml] holds it so. Raises [Invalid_argument] on a
    NaN or negative weight (naming the edge, as {!build} does) or an
    edge id out of range; slots patched before the failing edge keep
    their new weights. Counted by [dijkstra.snapshot_patched_edges],
    one per listed edge. *)

val length : t -> int
(** Number of edges covered ([Graph.n_edges] at build time). *)

val get : t -> int -> float
(** [get s e] is the snapshot weight of edge [e]. Bounds-checked. *)

external unsafe_get : t -> int -> float = "%floatarray_unsafe_get"
(** Unchecked read for traversal inner loops that have already
    validated [length s] against the graph (every packed edge id of a
    CSR row built for the same graph is in range). An [external], not
    a [val]: dune's dev profile compiles every unit with [-opaque], so
    no [val] is inlined across units and each call through one would
    return its float boxed — one allocation per relaxation. The
    primitive is expanded at the call site, so the weight stays
    unboxed. *)
