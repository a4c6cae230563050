(** Fractional relaxation of the auction LP — the multi-unit analogue
    of {!Ufp_lp.Mcf}, used as an independent optimum estimate in the
    [EXP-MUCA-RATIO] experiment.

    The relaxation is the packing LP with a row per item (budget
    [c_u]) and per bid (budget 1), and one column per bid, its bundle
    at demand 1. It runs {!Ufp_lp.Mcf.garg_konemann} over a scan of the
    bids (the first minimum wins); both a feasible fractional value
    (lower bound on OPT_LP) and a scaled-dual certificate (upper bound
    on OPT_LP, hence on the integral optimum) are returned. *)

type result = {
  feasible_value : float;
  upper_bound : float;
  fractions : float array;  (** feasible fractional acceptance per bid *)
  iterations : int;
}

val solve : ?eps:float -> Auction.t -> result
(** [eps] defaults to [0.1], must be in (0, 1). Deterministic. *)

val upper_bound : ?eps:float -> Auction.t -> float
