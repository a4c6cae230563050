(** Graph builders: the paper's lower-bound constructions and synthetic
    topologies for workloads.

    All random builders take an explicit {!Ufp_prelude.Rng.t} and are
    deterministic given the seed. *)

type staircase = {
  graph : Graph.t;
  sources : int array;  (** [s_1 .. s_l] of Figure 2, index 0 is [s_1] *)
  mids : int array;  (** [v_1 .. v_l] of Figure 2 *)
  sink : int;  (** the common target [t] *)
}

val staircase : levels:int -> capacity:float -> staircase
(** Figure 2 of the paper: a directed graph where every source [s_i]
    has an edge to every middle vertex [v_j] with [j >= i], and every
    [v_j] has an edge to the sink [t]. All capacities equal
    [capacity]. [levels] is the parameter [l]; it must be positive.
    The graph has [2l + 1] vertices and [l + l(l+1)/2] edges. *)

type stretched_staircase = {
  s_graph : Graph.t;
  s_sources : int array;
  s_mids : int array;
  s_sink : int;
}

val staircase_stretched : levels:int -> capacity:float -> stretched_staircase
(** The tie-break-proof variant from the proof of Theorem 3.11: every
    [(s_i, v_j)] edge is replaced by a directed path of [i*l + 1 - j]
    edges, which forces any reasonable (edge-count-sensitive) function
    to prefer the adversarial order without ties. [m = O(l^4)]. *)

(** Fixed vertex names of the Figure 3 gadget (0-indexed: [v1 = 0]). *)
module Gadget7 : sig
  val v1 : int
  val v2 : int
  val v3 : int
  val v4 : int
  val v5 : int
  val v6 : int
  val v7 : int
end

val gadget7 : capacity:float -> Graph.t
(** Figure 3 of the paper: the undirected 7-vertex graph with edges
    [v1-v2, v2-v3, v4-v5, v5-v6, v1-v7, v3-v7, v4-v7, v6-v7], all of
    capacity [capacity]. Any [v1->v6] or [v3->v4] path crosses edge
    [v1-v7] or [v3-v7], the bottleneck behind Theorem 3.12. *)

val grid : rows:int -> cols:int -> capacity:float -> Graph.t
(** Undirected [rows x cols] grid with uniform capacities; vertex
    [(r, c)] has index [r * cols + c]. *)

val layered :
  Ufp_prelude.Rng.t -> layers:int -> width:int -> edge_prob:float ->
  capacity_lo:float -> capacity_hi:float -> Graph.t
(** Random directed layered DAG: [layers] layers of [width] vertices;
    each forward pair in consecutive layers is an edge with probability
    [edge_prob], capacity uniform in [\[capacity_lo, capacity_hi\]].
    Every vertex additionally gets one guaranteed forward edge so the
    DAG has no dead ends. Vertex [(layer, slot)] has index
    [layer * width + slot]. *)

val erdos_renyi :
  Ufp_prelude.Rng.t -> n:int -> edge_prob:float -> directed:bool ->
  capacity_lo:float -> capacity_hi:float -> Graph.t
(** G(n, p) with capacities uniform in [\[capacity_lo, capacity_hi\]]. *)

val rmat :
  Ufp_prelude.Rng.t -> scale:int -> edge_factor:int ->
  ?a:float -> ?b:float -> ?c:float -> ?d:float -> ?directed:bool ->
  capacity_lo:float -> capacity_hi:float -> unit -> Graph.t
(** Graph500-style RMAT: [2^scale] vertices and [edge_factor * 2^scale]
    edges, each generated by [scale] recursive quadrant choices with
    probabilities [(a, b, c, d)] (defaults the standard skewed
    [(0.57, 0.19, 0.19, 0.05)]; they must each lie in [0, 1] and sum
    to 1). Directed by default. Capacities are uniform in
    [\[capacity_lo, capacity_hi)]. Deterministic given the seed; equal
    seeds yield identical edge lists. Self loops are redrawn (Graph
    rejects them); parallel edges are kept, as in Graph500.

    The degree distribution is heavy-tailed — expect hub vertices of
    degree 10^4+ at million-edge scale (see the degree-skew note in
    DESIGN.md). Built through {!Graph.of_edge_stream}, so the edge
    columns and the CSR are allocated once at final size.

    [scale] must be in [1, 30] and [edge_factor >= 1]. *)

val ring : n:int -> capacity:float -> Graph.t
(** Undirected cycle on [n >= 3] vertices. *)

(** Vertex names of the {!abilene} backbone, in index order. *)
module Abilene : sig
  val names : string array
  (** ["Seattle"; "Sunnyvale"; ...], 11 PoPs. *)
end

val abilene : capacity:float -> Graph.t
(** The Abilene research backbone (the classic 11-PoP, 14-link US
    topology used throughout the traffic-engineering literature), as
    an undirected graph with uniform [capacity]. A realistic small
    topology for the routing examples and benches. *)
