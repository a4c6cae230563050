(** Fractional multicommodity flow: a Garg–Könemann style
    multiplicative-weights FPTAS for the LP relaxation of the Figure 1
    program.

    The relaxation is a packing LP whose rows are the [m] edge
    capacity constraints plus the [|R|] per-request constraints
    [sum_{s in S_r} x_s <= 1], and whose (exponentially many) columns
    are (request, path) pairs found by a shortest-path oracle — the
    fractional problem the paper calls multicommodity flow and cites
    Garg–Könemann [9] / Fleischer [8] for. The loop, {!garg_konemann},
    takes its columns from the caller: {!solve} prices graph paths,
    {!Ufp_auction.Lp} the bids' fixed bundles.

    Two certified quantities are returned:
    - [feasible_value]: the value of an explicitly feasible fractional
      flow (the accumulated flow scaled down by the standard
      [log_{1+eps}((1+eps)/delta)] factor) — a lower bound on OPT_LP;
    - [upper_bound]: the best Claim-3.6-style scaled dual objective
      observed, an upper bound on OPT_LP and hence on the integral
      optimum. Approximation-ratio experiments divide algorithm values
      by this certified bound, which can only over-estimate the true
      ratio. *)

type path_flow = {
  pf_request : int;  (** request index *)
  pf_path : int list;  (** edge ids *)
  pf_amount : float;  (** fractional amount in [\[0, 1\]], post-scaling *)
}

type result = {
  feasible_value : float;  (** value of the returned feasible flow *)
  upper_bound : float;  (** certified upper bound on OPT_LP *)
  flow : path_flow list;  (** feasible fractional flow decomposition *)
  iterations : int;
}

type oracle = {
  best_column : unit -> (float * int * int list) option;
      (** A column [(alpha, i, p)] of least
          [alpha = (z_i + d_i * sum_{e in p} y_e) / v_i] under the
          current duals; [None] when no request has one. *)
  after_update : int list -> unit;  (** called with [p] after each dual update *)
}

val garg_konemann :
  eps:float -> capacities:float array -> demands:float array ->
  values:float array -> (y:float array -> z:float array -> oracle) -> result
(** The width-independent multiplicative-weights loop over one row per
    capacity and one unit row per request [i] (demand [demands.(i)],
    value [values.(i)]). [columns ~y ~z] gets the row duals the loop
    updates in place and returns the oracle it asks each iteration; a
    column's path lists capacity rows. [eps] must be in (0, 1). *)

val solve : ?eps:float -> Ufp_instance.Instance.t -> result
(** [solve ~eps inst]: {!garg_konemann} over the graph's paths, found
    by Dijkstra on a weight snapshot, with accuracy parameter [eps]
    (default [0.1], must be in (0, 1)). Deterministic. Requests whose
    target is unreachable are ignored. *)

val fractional_opt_interval : ?eps:float -> Ufp_instance.Instance.t -> float * float
(** [(lo, hi)] with [lo <= OPT_LP <= hi]: just [feasible_value] and
    [upper_bound] of {!solve}. *)
