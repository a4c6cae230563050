(** Baseline algorithms the paper compares against (Sections 1.1–1.2).

    - {!greedy_by_density} / {!greedy_by_value}: one-shot greedy
      orderings routed on fewest-hop feasible paths — the natural
      non-primal-dual strawmen.
    - {!threshold_pd}: the acceptance-threshold primal-dual in the
      style of Briest, Krysta and Vöcking [7] — same multiplicative
      dual update as Algorithm 1, but a request is accepted only while
      its normalised path length is below 1 and the loop carries no
      global budget; its guarantee approaches [e] rather than
      [e/(e-1)]. Monotone, so it also induces a truthful mechanism.
      A thin wrapper over {!Pd_engine.execute} with
      {!Pd_engine.threshold_rule}, inside a [baselines.threshold_pd]
      trace span.
    - {!randomized_rounding}: the classic non-truthful benchmark
      [17, 16, 18] — solve the fractional relaxation, round each
      request independently, then drop violating allocations. Its
      expected value approaches the LP optimum for large [B] but it
      violates monotonicity (exercised by the [EXP-MONO] experiment).

    All baselines return capacity-feasible solutions on normalised
    instances. *)

val greedy_by_density : Ufp_instance.Instance.t -> Ufp_instance.Solution.t
(** Requests in decreasing [v_r / d_r] order (ties to the lower
    index), each routed on a fewest-hop path among edges with enough
    residual capacity, skipped when no such path exists. *)

val greedy_by_value : Ufp_instance.Instance.t -> Ufp_instance.Solution.t
(** Same routing rule, requests in decreasing [v_r] order. *)

val threshold_pd :
  ?eps:float ->
  ?pool:Ufp_par.Pool.choice ->
  Ufp_instance.Instance.t ->
  Ufp_instance.Solution.t
(** BKV-style primal-dual: duals start at [1/c_e] and grow by
    [exp(eps B d_r / c_e)] along selected paths (as in Algorithm 1);
    the pending request minimising the normalised residual-feasible
    path length is accepted while that length is at most 1. Requires a
    normalised instance with [B >= 1]; [eps] defaults to [0.1].
    [pool] (default [`Seq]) builds the {!Selector}'s cold-fill trees
    across domains with bitwise-identical decisions and the same work. *)

val randomized_rounding :
  ?eps:float -> seed:int -> Ufp_instance.Instance.t ->
  Ufp_instance.Solution.t
(** The repaired solution of {!Rounding.round}: randomized rounding of
    the {!Ufp_lp.Mcf} fractional solution. Request [r] is tentatively
    selected with probability [(1 - eps) * x_r] on a path drawn
    proportionally to its fractional decomposition, then tentative
    allocations are admitted greedily in a seeded random order,
    dropping any that would overflow an edge. Deterministic given
    [seed]. [eps] defaults to [0.1]. *)
