(** The truthful UFP mechanism of Corollary 3.2: Algorithm 1 (or any
    monotone, exact allocation rule) plus critical-value payments.

    A request's type is the pair (demand, value); endpoints are
    public. The payment charged to a winner is the critical value {e at
    its declared demand}; by monotonicity and exactness this makes
    truthful reporting of both coordinates a dominant strategy
    (Theorem 2.3). Utilities model the single-minded semantics: an
    agent allocated less than its true demand gains nothing but still
    pays — which is precisely why under-declaring demand never pays
    off, while over-declaring can only hurt selection. *)

type algo = Ufp_instance.Instance.t -> Ufp_instance.Solution.t
(** Any allocation algorithm; the guarantees below assume it is
    monotone and exact (e.g. {!Ufp_core.Bounded_ufp.solve}). *)

val winners : algo -> Ufp_instance.Instance.t -> bool array

val model : algo -> Ufp_instance.Instance.t Single_param.model
(** The {!Single_param} view of the value coordinate. *)

val payments :
  ?rel_tol:float -> ?warm:Single_param.warm -> ?pool:Ufp_par.Pool.choice ->
  algo -> Ufp_instance.Instance.t -> float array
(** Critical-value payments at the declared demands. [pool] fans the
    per-winner pricing out across domains with bitwise-identical
    results; [warm] (default [`Declared]) seeds each winner's
    bisection bracket, or with [`Hinted] replaces the bisection by the
    hinted value (see {!Single_param.payments}). *)

val acceptance_thresholds :
  ?pool:Ufp_par.Pool.choice ->
  Ufp_instance.Instance.t -> Ufp_core.Bounded_ufp.run -> float array
(** [acceptance_thresholds inst run]: per-request hints for
    [payments ~warm:(`Hinted ...)] with {!Ufp_core.Bounded_ufp.solve}
    at [run]'s [eps]. Slot [i] holds winner [i]'s exact critical value
    from one counterfactual run ({!Ufp_core.Bounded_ufp.critical_values}),
    or [0.] for a request the solve never routed. The payment is that
    value, clamped at the declaration, at no probe: nothing on the
    payment path checks it. {!Single_param.certify} does, with at most
    two probes per winner, and [ufp payments --audit] runs it for every
    winner. [pool] (default [`Seq]) fans the winners out, with a
    bitwise-identical result. *)

val utility :
  ?v_hi:float -> ?rel_tol:float -> algo -> Ufp_instance.Instance.t ->
  agent:int -> true_demand:float -> true_value:float ->
  declared_demand:float -> declared_value:float -> float
(** Utility of [agent] whose true type is
    [(true_demand, true_value)] when it declares
    [(declared_demand, declared_value)] and everyone else declares as
    in the instance. Winning with a declared demand below the true
    demand yields gross value 0 (the allocation is unusable) while the
    payment is still charged. *)

type misreport_outcome = {
  declared : float * float;  (** (demand, value) *)
  won : bool;
  outcome_utility : float;
}

val truthfulness_table :
  ?rel_tol:float -> algo -> Ufp_instance.Instance.t -> agent:int ->
  misreports:(float * float) list -> misreport_outcome list * float
(** Evaluate a list of (demand, value) misreports; also returns the
    truthful utility. For a truthful mechanism no outcome exceeds the
    truthful utility (up to bisection tolerance). *)
