(** Algorithm 1 of the paper: [Bounded-UFP(eps)].

    A deterministic primal-dual algorithm for the B-bounded
    unsplittable flow problem. It maintains dual edge weights
    [y_e] (initially [1/c_e]); while requests remain and the dual
    budget [sum_e c_e y_e <= exp(eps (B - 1))] holds, it selects the
    pending request minimising the normalised shortest-path length
    [(d_r / v_r) * sum_{e in p_r} y_e], routes it on that path, and
    inflates the duals along the path by [exp(eps B d_r / c_e)].

    A thin wrapper over {!Pd_engine.execute} with
    {!Pd_engine.algorithm_1}: the loop, its [pd.*] counters and its
    [pd.select] trace instants live in the engine; this module adds
    the argument checks, the [bounded_ufp.run] trace span, and the
    result record below ([final_z] and the certified bound are derived
    from the engine's trace).

    Guarantees (Theorem 3.1): for instances with
    [B >= ln m / eps^2], the output is feasible, the value is within
    [(1 + 6 eps) e/(e-1)] of optimal, and the allocation is monotone
    and exact in every request's (demand, value) — hence it induces a
    truthful mechanism (Theorem 2.3, implemented in [Ufp_mech]).

    Ties in the request selection are broken towards the smallest
    request index, which keeps the algorithm deterministic (any fixed
    rule preserves monotonicity for the {e strict} improvements of
    Definition 2.1). *)

type trace_entry = Pd_engine.trace_entry = {
  iteration : int;  (** 1-based iteration number *)
  selected : int;  (** request chosen in this iteration *)
  path : int list;  (** path the request was routed on *)
  alpha : float;  (** normalised length [(d/v)|p|] at selection time — the paper's [alpha(i)] *)
  d1 : float;  (** [sum_e c_e y_e] after the dual update *)
  dual_bound : float;  (** the Claim 3.6 certificate [D1/alpha + D2] valid at selection time *)
}

type run = {
  solution : Ufp_instance.Solution.t;
  trace : trace_entry list;  (** in iteration order *)
  final_y : float array;  (** dual edge weights at termination *)
  final_z : float array;  (** [z_r = v_r] for selected requests, else 0 *)
  budget_exhausted : bool;  (** [true] when the loop stopped on the dual budget, [false] when every request was allocated *)
  certified_upper_bound : float;  (** an upper bound on OPT: min over iterations of [dual_bound], or the solution value when all requests were allocated *)
  iterations : int;
}

val budget : eps:float -> b:float -> float
(** The stopping threshold [exp(eps (B - 1))]. *)

val run :
  ?eps:float ->
  ?pool:Ufp_par.Pool.choice ->
  Ufp_instance.Instance.t ->
  run
(** Execute the algorithm. [eps] defaults to [0.1] and must lie in
    (0, 1]. The instance must be normalised (all demands in (0, 1],
    see {!Ufp_instance.Instance.normalize}) and have [B = min_e c_e >= 1];
    raises [Invalid_argument] otherwise.

    Selection runs on the cached {!Selector}: after the first
    selection builds one tree per source, a tree is recomputed only
    when a candidate surfaces at the heap top whose own path the dual
    updates have lengthened. [pool] (default
    [`Seq]) builds the selector's cold-fill trees (the first
    selection's) across an {!Ufp_par.Pool}; decisions are bitwise
    identical and the work counters equal either way (see
    {!Selector}). *)

val solve :
  ?eps:float ->
  ?pool:Ufp_par.Pool.choice ->
  Ufp_instance.Instance.t ->
  Ufp_instance.Solution.t
(** Just the allocation of {!run}. *)

val theorem_ratio : eps:float -> float
(** The Theorem 3.1 guarantee for accuracy [eps] as used by [run]
    directly: [(1 + 6 eps) * e / (e - 1)] (Lemma 3.8). *)
