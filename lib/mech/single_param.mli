(** Generic critical-value machinery for monotone allocation rules
    (Theorem 2.3, after Lehmann–O'Callaghan–Shoham [13] and Briest et
    al. [7]).

    A monotone, exact allocation algorithm induces a truthful
    mechanism whose payment for a winner is its {e critical value}:
    the infimum declared value at which it would still win, all other
    declarations fixed. This module computes critical values by
    bisection over a single agent's declared value, abstracted over
    the instance representation so that the same code serves UFP
    (value coordinate of the two-parameter type) and MUCA. *)

type 'inst model = {
  n_agents : 'inst -> int;
  get_value : 'inst -> int -> float;  (** declared value of an agent *)
  set_value : 'inst -> int -> float -> 'inst;  (** re-declare one agent's value *)
  winners : 'inst -> bool array;  (** run the allocation algorithm *)
}

val is_winner : 'inst model -> 'inst -> int -> bool

val default_v_hi : 'inst model -> 'inst -> float
(** The default bisection ceiling: 4 times the sum of all declared
    values (floored at 4). Every winner's critical value lies below it
    for any allocation that never prefers a coalition over a single
    agent outbidding it. Exposed so batch callers can compute it once
    per instance instead of once per probe. *)

type warm = [ `Cold | `Declared | `Hinted of int -> float ]
(** How {!payments} prices each winner. [`Cold]: probe the [v_hi]
    ceiling first, bisect [0, v_hi] — the pre-warm-start behaviour,
    kept as the reference for the warm-vs-cold law. [`Declared]: the
    winner array already certifies the agent wins at its declaration,
    so skip the ceiling probe and bisect [0, declared]. [`Hinted h]:
    [h i] is winner [i]'s exact critical value (for Algorithm 1, from
    {!Ufp_mechanism.acceptance_thresholds}), paid as it is with no
    probe (see [lo_hint] of {!critical_value}); {!certify} checks such
    a value. Bisected payments land within the bisection tolerance
    above the critical value, so the three modes agree within that
    tolerance, not bitwise; see docs/PARALLELISM.md, "Warm-started
    critical-value bisections". *)

val critical_value :
  ?v_hi:float -> ?rel_tol:float -> ?known_winner:bool -> ?lo_hint:float ->
  'inst model -> 'inst -> agent:int -> float option
(** [critical_value model inst ~agent] is [Some c] with [c] the
    critical value of [agent], or [None] when the agent loses even
    when declaring [v_hi] (default {!default_v_hi}). The bisection
    stops when the bracket is narrower than [rel_tol] (default
    [1e-6]) {e relative to the critical value itself} (floored at
    absolute [rel_tol] below 1.0) — accuracy does not degrade as
    [v_hi] grows with instance size. Requires the allocation to be
    value-monotone for this agent; on a non-monotone rule the result
    is meaningless.

    [known_winner] (default [false]) asserts the caller has already
    observed the agent winning at its declaration in [inst]; the
    ceiling probe is skipped and the bracket starts at [0, declared] —
    the declaration, {e not} [min v_hi declared], because winning at
    the declaration certifies winning only at values above it, so a
    [v_hi] below the declaration certifies nothing and capping there
    would silently converge onto [v_hi] and undercharge. The result
    may therefore exceed a custom [v_hi]; {!payments} clamps at the
    declaration. Passing [true] for an agent that does not win at its
    declaration breaks the bisection invariant — only hand it a
    winner.

    [lo_hint] is the caller's exact critical value [h] for a winner
    (for Algorithm 1, the counterfactual run's, which Theorem 2.3 makes
    the truthful payment): the result is [Some h], bitwise, with no
    probe and no bisection, whatever [known_winner] and [v_hi] say. The
    call still counts under [mech.warm_start_hits] and observes 0
    [mech.probes_per_winner]. Nothing here checks [h]; {!certify} does,
    at two probes. *)

val certify : 'inst model -> 'inst -> agent:int -> payment:float -> bool
(** [certify model inst ~agent ~payment] is the two-probe certificate
    of a critical-value payment: with [delta = rel_tol/4 * max 1
    payment], where [rel_tol] is the bisection's default
    [Float_tol.payment_rel_tol = 1e-6], [agent] must win when it
    declares [payment + delta], and lose when it declares [payment -
    delta] — a probe made only when [payment - delta > 0], since
    declarations are positive. On a value-monotone rule a [true] result
    puts the critical value within [delta] of [payment]; an exact
    critical value passes at no more than 2 probes. Each probe is one
    run of the allocation on a [set_value] copy, counted under
    [mech.payment_probes]; each call counts under
    [mech.certificate_checks], and each [false] under
    [mech.certificate_failures]. [ufp payments --audit] certifies every
    winner this way. *)

val payments :
  ?v_hi:float -> ?rel_tol:float -> ?warm:warm -> ?pool:Ufp_par.Pool.choice ->
  'inst model -> 'inst -> float array
(** Critical-value payment for every winner, [0.] for losers — the
    truthful mechanism of Theorem 2.3. A winner whose critical value
    exceeds its declaration (possible only through bisection
    tolerance, or a hint above it) is charged its declaration. [warm]
    (default [`Declared]) chooses how each winner is priced — see
    {!warm}; the winner array computed here is what certifies
    [`Declared], and [`Hinted h] pays each winner [i] bitwise
    [Float.min (h i) v_i] at no probe. [v_hi] is the probe ceiling for
    [`Cold] bisections (compute it once for batch calls); under the
    warm modes each winner's bracket top is its own declaration, so a
    [v_hi] below a declaration is ignored rather than allowed to
    undercut the critical value.

    [pool] fans the per-winner pricing out across domains
    ([`Seq], the default, keeps everything on the calling domain).
    The result is bitwise identical either way {e at any fixed warm
    mode}: each agent's probes run on a private [set_value] copy of
    the instance, so parallelism reorders only whole agents, never
    the float operations inside one — see docs/PARALLELISM.md and the
    laws in test/test_mech.ml. *)

val utility :
  ?v_hi:float -> ?rel_tol:float -> 'inst model -> 'inst ->
  agent:int -> true_value:float -> declared_value:float -> float
(** Quasi-linear utility of [agent] with the given true value when it
    declares [declared_value] (everyone else as in [inst]):
    [true_value - payment] if the declaration wins, else [0.]. *)

type spot_check = {
  agent : int;
  truthful_utility : float;
  best_misreport_utility : float;
  best_misreport : float option;  (** a misreport strictly beating truth, if found *)
}

val spot_check_truthfulness :
  ?v_hi:float -> ?rel_tol:float -> ?slack:float -> 'inst model -> 'inst ->
  agent:int -> misreports:float list -> spot_check
(** Evaluate the agent's utility under each misreported value,
    treating its declaration in [inst] as its true value.
    [best_misreport] is [Some v] when some misreport improves on
    truthful utility by more than [slack] (default [1e-5] relative) —
    for a truthful mechanism this is always [None] up to bisection
    error. *)
