(** The primal-dual iterative path minimizer: the one loop behind
    Algorithms 1, 2 and 3, the threshold rule and EXP-ABLATION.

    Each iteration selects the pending request minimising the
    normalised shortest-path length [(d_r/v_r) sum_{e in p} y_e] under
    the current duals, routes it, and inflates the duals along the
    path; the {!config} decides the inflation factor, the stopping
    rule, whether a selected request leaves the pool (no-repetitions)
    and whether paths are filtered by residual capacity.

    {!Bounded_ufp}, {!Bounded_ufp_repeat} and
    {!Baselines.threshold_pd} are thin wrappers over {!execute},
    [Ufp_auction.Bounded_muca] over {!execute_bundles}, and
    {!counterfactual} resumes the same loop from a replayed trace
    prefix to price one winner. Bitwise QCheck laws check the engine
    against a literal transcription of the path loop in
    [test/test_core.ml] (a fresh Dijkstra per pending request, no
    {!Selector}) and Algorithm 2's loop in [test/test_auction.ml]. *)

type stop_rule =
  | Budget of float
      (** stop when [sum_e c_e y_e] exceeds the bound — Algorithm 1
          uses [exp(eps (B-1))] *)
  | Threshold of float
      (** stop when the minimum normalised length exceeds the bound —
          the acceptance-threshold (BKV-style) rule uses [1.0] *)

type config = {
  eps : float;  (** accuracy parameter, in (0, 1] *)
  inflation : b:float -> demand:float -> capacity:float -> float;
      (** multiplicative dual update for an edge on the selected path;
          Algorithm 1 uses [exp (eps * b * demand / capacity)] *)
  stop : stop_rule;
  remove_selected : bool;  (** [false] = the with-repetitions problem *)
  respect_residual : bool;
      (** filter candidate paths by residual capacity; Algorithm 1
          relies on the budget instead and sets this [false] *)
}

val algorithm_1 : eps:float -> b:float -> config
(** The exact parameters of [Bounded-UFP(eps)]. *)

val algorithm_3 : eps:float -> b:float -> config
(** The exact parameters of [Bounded-UFP-Repeat(eps)]. *)

val threshold_rule : eps:float -> b:float -> config
(** The BKV-style acceptance-threshold rule of
    {!Baselines.threshold_pd}. *)

type trace_entry = {
  iteration : int;  (** 1-based iteration number *)
  selected : int;  (** request chosen in this iteration *)
  path : int list;  (** path the request was routed on *)
  alpha : float;  (** normalised length [(d/v)|p|] at selection time — the paper's [alpha(i)] *)
  d1 : float;  (** [sum_e c_e y_e] after the dual update *)
  dual_bound : float;
      (** [D1/alpha + D2] under the duals before the update ([infinity]
          if [alpha = 0]); [D2] sums the values selected so far when
          [remove_selected], and is 0 otherwise *)
}

type run = {
  solution : Ufp_instance.Solution.t;
  trace : trace_entry list;  (** one entry per allocation, in order *)
  iterations : int;
  final_y : float array;  (** dual edge weights at termination *)
  budget_exhausted : bool;  (** the loop ended on a [Budget] stop *)
  certified_upper_bound : float;
      (** Claim 3.6's OPT bound, for a [Budget] stop with
          [remove_selected] and no [respect_residual] ({!algorithm_1}):
          the least [dual_bound], capped by [D2] unless the budget
          stopped the run; [infinity] (no certificate) otherwise *)
}

exception
  Iteration_limit of { iterations : int; d1 : float; stop : stop_rule }
(** Raised by {!execute} when the defensive iteration budget is
    exceeded (a non-terminating configuration, e.g. a repetitions run
    whose duals never reach the budget). Carries the iteration count,
    the dual mass [sum_e c_e y_e] reached, and the stop rule in force
    so the failure is diagnosable without a re-run. A printer is
    registered with [Printexc]. *)

val capacity_slack : float
(** The absolute slack used when comparing residual capacity against a
    demand ({!Ufp_prelude.Float_tol.capacity_slack}, shared with
    {!Audit} and {!Baselines}). *)

val execute :
  ?max_iterations:int ->
  ?pool:Ufp_par.Pool.choice ->
  config ->
  Ufp_instance.Instance.t ->
  run
(** Run the engine. Requires a normalised instance with [B >= 1]
    (raises [Invalid_argument] otherwise). [max_iterations] (default
    [1_000_000]) guards non-terminating configurations; exceeding it
    raises {!Iteration_limit} with the loop state. Ties break towards
    the lowest request index.

    [dual_bound] certifies OPT only for [Budget] configs without
    residual filtering: it is Claim 3.6's certificate for
    {!algorithm_1} and Claim 5.2's [D/alpha] for {!algorithm_3}.

    [pool] (default [`Seq]) builds the {!Selector}'s cold-fill trees
    across an {!Ufp_par.Pool}; decisions and work counters are the
    same as under [`Seq].

    Work accounting: this is the only registration site of the [pd.*]
    metrics of {!Ufp_obs.Metrics} (runs, iterations, per-edge dual
    updates, [D1] growth, a path-length histogram). They are pure
    functions of the selection trace, hence identical across pool
    modes and repeated runs (see
    docs/OBSERVABILITY.md). The {!Selector} builds one weight
    snapshot per run under Uniform weights, or one per rebuilt
    Per_demand group under residual filtering
    ([dijkstra.snapshot_builds]), and patches each live one on every
    dual update ([dijkstra.snapshot_patched_edges]); residual
    rejections are counted under [selector.residual_rejections] once
    per edge per build and once per patched edge, also the same
    across pool modes. With
    {!Ufp_obs.Trace} on, each iteration emits a [pd.select] instant;
    the engine opens no span, so the loop's time is the self time of
    the caller's span ([bounded_ufp.run], ...). *)

val execute_bundles :
  config -> capacities:float array -> bundles:int list array ->
  values:float array -> run
(** The loop over fixed bundles, Algorithm 2 under {!algorithm_1}: item
    [u] is a dual of capacity [capacities.(u)], every demand is 1, and
    bid [i]'s one candidate is its bundle [bundles.(i)] (item ids below
    the item count), priced [(sum_{u in U_i} y_u) / values.(i)] (that
    division, not [1/v_i] times the sum; values positive) by a scan
    over the pending bids, ties towards the lowest index. Solution
    paths are bundles. Counters and [pd.select] instants as for
    {!execute}: [pd.dual_updates] counts the winners' bundle items, and
    [pd.path_edges] observes bundle sizes. Each bid wins at most once,
    so no iteration guard applies. Raises [Invalid_argument] as
    {!execute} does, and under [respect_residual] or without
    [remove_selected]. *)

val counterfactual :
  config -> Ufp_instance.Instance.t -> trace_entry array -> int -> float
(** [counterfactual config inst trace k] is the exact critical value of
    [w = trace.(k).selected], the request the run [trace] (of {!execute}
    with [config] on [inst], in iteration order) selected at iteration
    [k + 1]: the infimum of the values [w] can declare and still win,
    every other declaration fixed.

    Declaring [v <= v_w] only raises [alpha_w = (d_w / v) L_w], so the
    run with that declaration equals the run without [w] until [w] is
    selected, and its first [k] iterations equal the run's. The engine
    therefore replays the first [k] dual updates with the loop's own
    update code (no Dijkstra), removes those requests and [w] from a
    fresh {!Selector}, and resumes the loop. At each resumed iteration,
    selecting at [alpha_sel], it folds [d_w L_w / alpha_sel] into a
    minimum, reading [L_w] through {!Selector.distance}. When the
    budget stops the resumed run the minimum is the result. When it
    runs out of pending or routable requests within the budget (the
    engine tests emptiness before the budget) and [w] is routable, [w]
    would be selected at any positive value, and the result is [0.].
    Outputs carry float rounding of a few ulps, hence the two-probe
    certificate of {!Ufp_mech.Single_param.critical_value}.

    Requires a [Budget] stop without repetitions ({!algorithm_1}, with
    or without residual filtering); raises [Invalid_argument]
    otherwise, or when [k] is out of range. Sequential, with a private
    state: independent calls fan out across a pool bitwise-safely. The
    replayed updates count under [pd.dual_updates], the resumed
    iterations under [pd.iterations] (and emit [pd.select]); a
    counterfactual is not a [pd.runs] run. *)
