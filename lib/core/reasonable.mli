(** The family of {e reasonable iterative path minimizing algorithms}
    (Definitions 3.9 and 3.10), made executable.

    Such an algorithm iteratively selects, among all capacity-feasible
    paths of still-unselected requests, one minimising a {e reasonable}
    priority function of the path and the current flow, routes it, and
    repeats until nothing fits. Theorems 3.11 and 3.12 lower-bound
    every member of this family; this module is the simulator those
    experiments run.

    The simulator enumerates the simple-path sets of the requests
    (cached per endpoint pair), so it is exact but intended for the
    structured lower-bound instances and other small graphs — not for
    large random workloads, where {!Bounded_ufp} is the production
    implementation of the [h]-minimizing member of the family. Its
    loop, {!minimize}, also runs the bundle minimizer of Definition 4.4
    ({!Ufp_auction.Reasonable_bundle}).

    Tie-breaking among equal-priority candidates is a first-class
    parameter: the paper's lower-bound proofs fix an adversarial rule
    (e.g. "select [(s_i, v_j, t)] with [i] minimal and [j] maximal"),
    and the instances are engineered so that any rule gives the same
    bound asymptotically. *)

type state = {
  graph : Ufp_graph.Graph.t;
  flow : float array;  (** current routed demand per edge id *)
}

type priority = state -> Ufp_instance.Request.t -> int list -> float
(** [priority st r path] — smaller is selected earlier. A function is
    {e reasonable} (Definition 3.9) when, with identical capacities and
    unit types, it is monotone under the edge-count/flow-vector
    domination order; the instantiations below all are. *)

val h : eps:float -> b:float -> priority
(** The function minimised by Algorithm 1:
    [(d_p/v_p) * sum_{e in p} (1/c_e) exp(eps B f_e / c_e)] (§3.3). *)

val h1 : eps:float -> b:float -> priority
(** [ln(1 + |p|) * h(p)] — the paper's example of a reasonable function
    mildly biased towards fewer edges. *)

val h2 : priority
(** [(d_p/v_p) * prod_{e in p} (f_e / c_e)] — the paper's second
    example ("although it is not clear why anyone would like to use
    it"). *)

val hops : priority
(** [(d_p/v_p) * |p|]: plain shortest-hop greedy, also reasonable. *)

type candidate = {
  cand_request : int;  (** request index (group representative) *)
  cand_path : int list;  (** edge ids ({!minimize}: any [int list]) *)
}

type tie_break = state -> candidate list -> candidate
(** Chooses among the minimum-priority candidates (always a non-empty
    list, in deterministic order: increasing request index, then
    lexicographic edge-id order of the path). *)

val first_candidate : tie_break
(** Lowest request index, then first enumerated path — the neutral
    deterministic rule. *)

val prefer_hub : int -> tie_break
(** Among minimal candidates, prefer a path visiting the given vertex
    (then fall back to {!first_candidate} order). The Figure 3
    adversary with the hub [v7]. *)

val prefer_max_second_vertex : tie_break
(** Lowest source request; among its minimal paths prefer the one
    whose second vertex has the largest id. The Figure 2 adversary:
    on the staircase it selects [(s_i, v_j, t)] with [i] minimal and
    [j] maximal. *)

val random_tie : seed:int -> tie_break
(** Uniformly random choice among the tied candidates (deterministic
    given the seed). *)

type result = { solution : Ufp_instance.Solution.t; iterations : int }

val minimize :
  n_requests:int ->
  group:(int -> 'k) ->
  candidates:(int -> int list Seq.t) ->
  priority:(int -> int list -> float) ->
  tie_break:(candidate list -> candidate) ->
  select:(candidate -> unit) ->
  candidate list
(** The minimizer loop over the caller's candidates, returning the
    selections in order. Requests with equal [group] keys are
    interchangeable: each iteration scores, by [priority], the
    [candidates] (those that fit now) of each group's lowest pending
    request, hands the ties within [Float_tol.tie_rel] of the least
    priority, sorted by (request, candidate), to [tie_break], calls
    [select] on its choice and retires that request; it stops when no
    pending request has a candidate. *)

val run :
  ?max_paths:int -> priority:priority -> tie_break:tie_break ->
  Ufp_instance.Instance.t -> result
(** {!minimize} over each request's capacity-feasible simple paths,
    to saturation. [max_paths] (default [20000]) bounds the
    per-endpoint-pair simple-path enumeration; raises
    [Invalid_argument] when exceeded. Requests
    sharing (src, dst, demand, value) are grouped, so the per-iteration
    cost scales with distinct request types, not request count. *)
