(** Tolerant float comparisons.

    The primal-dual solvers accumulate exponential edge weights; exact
    float equality is meaningless there, so every comparison against a
    theoretical bound in tests and benches goes through this module
    with an explicit tolerance. *)

val default_eps : float
(** [1e-9], suitable for values of magnitude around 1. *)

val capacity_slack : float
(** [1e-9]: the absolute slack used whenever residual capacity is
    compared against a demand (edge filtering in the residual-aware
    primal-dual rules, feasibility repair, audit bookkeeping). One
    shared constant so the solvers and the auditor agree on what
    "fits" means. *)

(** {1 Named per-domain tolerances}

    Every slack in the codebase lives here under a documented name;
    ufp-lint rule R1 rejects inline tolerance literals anywhere else
    (see [docs/LINTING.md]).  Theorem 2.3's truthfulness argument
    needs the selection rule to be a deterministic, monotone function
    of the bids — which it only is if every solver, auditor and test
    agrees on what "equal", "fits" and "feasible" mean.  The values
    are frozen: a renaming sweep must never retune them. *)

(** {2 LP / flow solvers} *)

val lp_pivot_eps : float
(** [1e-9]: simplex pivot admissibility and ratio-test tolerance
    ({!Ufp_lp.Simplex}). *)

val lp_support_eps : float
(** [1e-9]: threshold below which a primal variable is treated as zero
    when extracting the support of a path-LP solution. *)

val lp_price_tol : float
(** [1e-7]: column-generation termination — a column enters only when
    its reduced cost beats the duals by more than this. *)

val lp_exact_tol : float
(** [1e-12]: branch-and-bound pruning and capacity-fit slack in the
    exact ILP solver ({!Ufp_lp.Exact}). *)

val maxflow_eps : float
(** [1e-12]: residual-arc saturation threshold in Dinic's algorithm
    ({!Ufp_graph.Maxflow}). *)

val greedy_prune_tol : float
(** [1e-12]: suffix-value pruning slack in the greedy/staircase
    auction baselines. *)

(** {2 Selection and tie-breaking} *)

val tie_rel : float
(** [1e-9]: relative tolerance under which two selection priorities
    count as tied and the deterministic index order breaks the tie
    ({!Ufp_core.Reasonable}, {!Ufp_auction.Reasonable_bundle}). *)

(** {2 Mechanism: payments and truthfulness probes} *)

val payment_rel_tol : float
(** [1e-6]: default relative tolerance for the critical-value
    bisection ({!Ufp_mech.Single_param.critical_value}). *)

val fine_rel_tol : float
(** [1e-7]: tighter bisection tolerance used by scaling laws that
    compare critical values across scaled instances. *)

val spot_check_slack : float
(** [1e-5]: default slack for truthfulness spot checks — a misreport
    must beat the truthful utility by more than this to count. *)

val coarse_slack : float
(** [1e-4]: coarse slack for payment-vs-value sanity checks and
    benchmark-grade bisections. *)

val report_slack : float
(** [1e-3]: reporting threshold for truthfulness-violation tables;
    utilities within this of truthful are "no gain". *)

val demand_tol : float
(** [1e-12]: slack when comparing a declared demand against the true
    demand in utility accounting. *)

(** {2 Verification, audits and test assertions} *)

val duality_check_eps : float
(** [1e-6]: feasibility slack when checking a dual certificate against
    the Figure 1 dual constraints ({!Ufp_lp.Duality.dual_feasible}). *)

val check_eps : float
(** [1e-9]: default assertion tolerance in tests and experiment
    sanity checks (matches {!default_eps}). *)

val loose_check_eps : float
(** [1e-6]: loose assertion tolerance for quantities that went through
    a solver (accumulated exponential weights, LP objectives). *)

val tight_eps : float
(** [1e-12]: near-machine-precision assertion tolerance; also the
    denominator floor when normalising by an LP optimum. *)

val contention_tol : float
(** [1e-9]: slack above 1.0 before a diagnostic flags an edge as
    overloaded. *)

val div_guard : float
(** [1e-9]: denominator floor for speedup/ratio reporting, so timing
    ratios never divide by zero. *)

val approx_eq : ?eps:float -> float -> float -> bool
(** [approx_eq a b] holds when [|a - b| <= eps * max(1, |a|, |b|)]
    (relative for large magnitudes, absolute near zero). *)

val leq : ?eps:float -> float -> float -> bool
(** [leq a b] is [a <= b] up to tolerance. *)

val geq : ?eps:float -> float -> float -> bool
(** [geq a b] is [a >= b] up to tolerance. *)

val first_not_leq : float array -> floatarray -> int
(** [first_not_leq a b] is the least [i] with [not (leq a.(i)
    (Float.Array.get b i))], or [-1] when there is none, and allocates
    nothing. [b] may be longer than [a] (a growable column, such as
    {!Ufp_graph.Graph}'s capacities); only its first [Array.length a]
    slots are read. Raises [Invalid_argument] when [b] is shorter than
    [a]. *)

val clamp : lo:float -> hi:float -> float -> float
(** Clamp into [\[lo, hi\]]. *)
