(** Capacitated graphs for the unsplittable flow problem.

    Vertices are dense integers [0 .. n-1]; edges carry a positive
    capacity and are identified by dense integers [0 .. m-1], so
    per-edge solver state (dual weights, flow loads) lives in plain
    float arrays indexed by edge id.

    A graph is either directed or undirected. An undirected edge is a
    single edge, traversable in both directions, with one shared
    capacity, matching the model of the paper's Section 3.3 (Figure 3
    gadget).

    {b Edge columns.} A graph keeps its edges as three flat columns
    (tails, heads, capacities), not as one heap record per edge, and
    one adjacency, the packed {!csr}: a loaded graph holds about four
    words per directed edge, adjacency included, and nothing per edge
    for the minor GC to promote.
    {!edge} and {!fold_edges} build an {!edge} record on demand, one
    allocation per call, so hot loops should read {!capacity},
    {!capacities}, {!other_endpoint} or the {!csr} cells instead.

    {b Neighbor-order determinism contract.} Every adjacency view —
    {!out_edges} and the packed {!csr} rows — presents the edges incident
    to a vertex in {e insertion order} (increasing edge id). This is
    the canonical order the whole repository's determinism argument
    rests on: Dijkstra resolves equal-distance parent ties by the first
    relaxation that reaches the minimum, so the parent tree is only a
    pure function of the weight vector because the relaxation order is
    pinned. See the graph-layer section of DESIGN.md. *)

type t
(** A capacitated graph. Structure is append-only: vertices are fixed
    at creation, edges may be added. *)

type edge = private {
  id : int;  (** dense edge identifier *)
  u : int;  (** tail (or first endpoint when undirected) *)
  v : int;  (** head (or second endpoint when undirected) *)
  capacity : float;  (** positive capacity [c_e] *)
}

module Csr : sig
  (** The packed adjacency every traversal reads ({!Dijkstra},
      {!out_edges}, the instance workloads' BFS) and the cell layout of
      the Dinic residual of {!Maxflow}: a frozen sequence of
      [(fst, snd)] int pairs packed two 32-bit halves to an 8-byte
      cell, read back with one unaligned 64-bit load — half the cache
      traffic of two plain int arrays at RMAT scale. Hot loops read a
      cell through the {!unsafe_get64} primitive, which compiles to
      that load in the caller even across units under [-opaque]
      (dune's dev profile), and split its halves themselves: no call,
      no allocation. *)
  module Cells : sig
    type t

    val max_packed : int
    (** Largest value a 32-bit half can carry: [2^31 - 1]. *)

    val pack : int array -> int array -> t
    (** [pack a b] copies the pairs into 8-byte cells (slot [k] is
        [(a.(k), b.(k))]). Raises [Invalid_argument] — naming the
        offending slot — when any value lies outside
        [[0, max_packed]], when lengths differ, or when native ints
        are narrower than 63 bits (the packed word is reassembled
        through a 63-bit [int]). *)

    val length : t -> int

    val fst : t -> int -> int
    (** Bounds-checked first half of a slot. *)

    val snd : t -> int -> int
    (** Bounds-checked second half of a slot. *)

    external unsafe_get64 : t -> int -> int64 = "%caml_bytes_get64u"
    (** [unsafe_get64 c (k lsl 3)] is slot [k]'s packed word [w], read
        without a bounds check: its first half is
        [Int64.to_int w land max_packed] and its second half
        [Int64.to_int w lsr 32]. For traversal inner loops whose slot
        indices come from a [row_start] built for the same cells; the
        [int64] is never boxed when [Int64.to_int] consumes it
        directly. *)
  end

  type t = private {
    row_start : int array;
        (** length [n + 1]; vertex [u]'s neighbors occupy slots
            [row_start.(u) .. row_start.(u+1) - 1] of [cells] *)
    cells : Cells.t;
        (** slot [k] is [(nbr, eid)]: the neighbor (head) vertex as
            its first half, the edge id as its second *)
  }
  (** Compressed-sparse-row adjacency: the row offsets and one packed
      cell per slot, no per-neighbor allocation or pointer chasing in
      traversal loops. Rows are in insertion order (increasing edge
      id). Both are frozen once built — [row_start] is physically
      mutable (OCaml offers no immutable int arrays) but must be
      treated as read-only — and shared by every traversal until the
      next {!add_edge}. *)
end

val create : directed:bool -> n:int -> t
(** [create ~directed ~n] is a graph with [n] vertices and no edges.
    Raises [Invalid_argument] if [n < 0]. *)

val add_edge : t -> u:int -> v:int -> capacity:float -> int
(** [add_edge g ~u ~v ~capacity] appends an edge and returns its id.
    Raises [Invalid_argument] on out-of-range endpoints, a self loop,
    or a capacity that is not positive and finite. Parallel edges are
    allowed. Invalidates the cached {!csr}. *)

val of_edge_stream :
  directed:bool -> n:int -> m:int -> f:(int -> int * int * float) -> t
(** [of_edge_stream ~directed ~n ~m ~f] builds a graph with [n]
    vertices and the [m] edges [f 0 .. f (m-1)], where [f i] is
    [(u, v, capacity)] of the edge that gets id [i]. [f] is called
    exactly once per index, in increasing order — a stateful generator
    (e.g. one threading an {!Ufp_prelude.Rng.t}) is a legal stream.

    This is the streaming CSR builder for million-edge instances — the
    generators and the instance reader ([Ufp_instance.Io]) both build
    through it: the stream is drained straight into exactly-sized flat
    arrays (the three edge columns, degrees counted during the drain),
    then one counting sort writes the {!csr} row offsets and cells,
    never touching the doubling growth path of repeated {!add_edge} —
    one allocation per array at final size instead of ~log m copies
    and a 2x peak. Nothing per edge outlives the tuple [f] returns for
    it. The {!csr} is built eagerly, so the first traversal pays
    nothing.

    Per-edge validation matches {!add_edge} (endpoints in range, no
    self loops, positive finite capacity); [Invalid_argument] is
    raised on the first offending edge, on [n < 0] or [m < 0], and —
    before anything [n]- or [m]-sized is allocated — on counts
    {!csr} cannot pack (either above [Csr.Cells.max_packed + 1], or
    native ints narrower than 63 bits), and on an [n] too large for
    its row offsets to be allocated ("vertex count too large"), so a
    vertex count read from a file needs no check of its own. *)

val rescale : t -> divisor:float -> t
(** [rescale g ~divisor] is [g] with every capacity [c] replaced by
    [c /. divisor]: the same vertices, and the same edges under the
    same ids. The copy gets a capacity column of its own. It shares
    [g]'s endpoint columns when they are exactly [m] long (as
    {!of_edge_stream} leaves them) and copies them to that length
    otherwise ({!add_edge} grows them by doubling, which leaves spare
    slots), so an {!add_edge} on either graph, which copies a full
    column before writing, never changes the other's edges. It starts
    with [g]'s adjacency, which holds no capacities: [g]'s {!csr},
    built now if [g] has none, so it is built once for both. An
    {!add_edge} on either graph drops only that graph's cached
    adjacency. Raises
    [Invalid_argument] when a scaled capacity is not positive and
    finite (an overflow or underflow), as {!add_edge} would. *)

val is_directed : t -> bool

val n_vertices : t -> int

val n_edges : t -> int

val csr : t -> Csr.t
(** The graph's one adjacency, the packed CSR every traversal reads:
    built on demand by one counting sort over the edge columns and
    cached until the next {!add_edge} (the [graph.csr_builds] counter
    tracks builds); a {!rescale} copy starts with its source's. In an
    undirected graph each edge appears in both endpoints' rows with
    the opposite endpoint as neighbor. Solvers add all edges before
    traversing, so a solve normally pays for exactly one build. Raises
    [Invalid_argument] when the graph has more than
    [Csr.Cells.max_packed + 1] vertices or edges (an id would not fit
    a 32-bit half), or when native ints are narrower than 63 bits,
    before allocating anything. Callers that fan traversals out across
    domains must force this on the submitting domain first (as
    {!Ufp_core.Selector} does at creation) so worker domains only ever
    read the frozen cells. *)

val arcs_csr : n:int -> tails:int array -> heads:int array -> Csr.t
(** [arcs_csr ~n ~tails ~heads] is the packed CSR of the directed arcs
    [i = 0 .. length tails - 1], arc [i] running from [tails.(i)] to
    [heads.(i)], over vertices [0 .. n-1]: the counting sort {!csr}
    runs on a directed graph's edge columns, so slot [k] is
    [(heads.(i), i)] and every row lists its arcs in increasing index.
    For residual networks built beside a graph ({!Maxflow}); it leaves
    the [graph.csr_builds] counter alone. Raises [Invalid_argument]
    when [n < 0], the columns differ in length, an endpoint lies
    outside [[0, n)], or the counts cannot be packed (as {!csr}). *)

val csr_view : t -> Csr.t
(** [csr_view] is {!csr}, kept as an alias because the perfbench
    harness ([perfbench/main.ml]) still calls it. *)

val edge : t -> int -> edge
(** [edge g id] is the edge with identifier [id], a record built from
    the columns on each call. Raises [Invalid_argument] if out of
    range. *)

val capacity : t -> int -> float
(** Capacity of an edge by id. Raises [Invalid_argument] as {!edge}
    does. Called from another compilation unit under [-opaque] (dune's
    dev profile), the result comes back boxed: scans over every edge
    should read {!capacities} once. *)

val capacities : t -> float array
(** [capacities g] is a fresh array of the [m] capacities, indexed by
    edge id: one flat copy of the capacity column, no boxed float per
    edge. The caller owns it (the solvers' dual and residual arrays
    start as this copy). *)

val first_over_capacity : t -> float array -> int
(** [first_over_capacity g loads] is the least edge id [e] whose load
    [loads.(e)] exceeds its capacity beyond
    {!Ufp_prelude.Float_tol.leq}'s default tolerance, or [-1] when every
    edge fits. It reads the capacity column in place, so it allocates
    nothing. Raises [Invalid_argument] unless [loads] has one slot per
    edge. *)

val min_capacity : t -> float
(** [min_capacity g] is [min_e c_e]; the paper's bound [B] when demands
    are normalised to (0,1]. Raises [Invalid_argument] on an edgeless
    graph. *)

val out_edges : t -> int -> (int * int) list
(** [out_edges g u] lists [(edge_id, head)] pairs for edges leaving
    [u]. In an undirected graph an edge incident to [u] appears with
    the opposite endpoint as head. Order is insertion order (increasing
    edge id) — the canonical order shared with {!csr}. (Before the CSR
    core this was reverse insertion order; the trace-equivalence
    fixtures were re-pinned once for the flip.) Allocates: hot loops
    should read the {!csr} cells instead. *)

val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over all edges in increasing id order, building one {!edge}
    record per edge. *)

val other_endpoint : t -> int -> int -> int
(** [other_endpoint g id w] is the endpoint of edge [id] different from
    [w]. Raises [Invalid_argument] if [w] is not an endpoint. *)

val pp : Format.formatter -> t -> unit
(** Debug rendering: one line per edge. *)
