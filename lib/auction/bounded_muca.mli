(** Algorithm 2 of the paper: [Bounded-MUCA(eps)].

    The specialisation of Algorithm 1 to single-minded multi-unit
    combinatorial auctions: item duals start at [1/c_u]; while bids
    remain and [sum_u c_u y_u <= exp(eps (B - 1))], the pending bid
    minimising [(1/v_r) sum_{u in U_r} y_u] is accepted and the duals
    of its bundle are inflated by [exp(eps B / c_u)].

    A thin wrapper over {!Ufp_core.Pd_engine.execute_bundles} under
    {!Ufp_core.Pd_engine.algorithm_1}: argument checks, a result record.

    Theorem 4.1: for [B >= ln m / eps^2] the allocation is feasible,
    [(1 + 6 eps) e/(e-1)]-approximate, monotone and exact in every
    bid's value — and by the unknown-single-minded argument
    (Corollary 4.2), shrinking the bundle can only help, so the
    induced mechanism is truthful even when bundles are private. *)

type trace_entry = Ufp_core.Pd_engine.trace_entry = {
  iteration : int;
  selected : int;  (** the bid accepted in this iteration *)
  path : int list;  (** its bundle *)
  alpha : float;  (** normalised bundle price [(sum y_u) / v] at selection *)
  d1 : float;  (** [sum_u c_u y_u] after the update *)
  dual_bound : float;  (** scaled-dual certificate [D1/alpha + D2] *)
}

type run = {
  allocation : Auction.Allocation.t;
  trace : trace_entry list;
  final_y : float array;
  budget_exhausted : bool;
  certified_upper_bound : float;  (** upper bound on the optimal value *)
  iterations : int;
}

val run : ?eps:float -> Auction.t -> run
(** [eps] defaults to [0.1], must be in (0, 1]; requires [B >= 1]
    (every multiplicity positive, which {!Auction.create} enforces).
    Ties break towards the lowest bid index. *)

val solve : ?eps:float -> Auction.t -> Auction.Allocation.t

val theorem_ratio : eps:float -> float
(** [(1 + 6 eps) e / (e - 1)], {!Ufp_core.Bounded_ufp.theorem_ratio}. *)
