(** Reasonable iterative bundle minimizing algorithms
    (Definitions 4.3 and 4.4) — the auction counterpart of
    {!Ufp_core.Reasonable}.

    Iteratively selects, among pending bids whose bundles still fit the
    residual multiplicities, one minimising a reasonable priority of
    (bundle, current loads), until nothing fits. Theorem 4.5 shows no
    member of this family beats [4/3]; the [EXP-FIG4-LB] experiment
    runs this simulator on {!Lower_bound.make}. The loop is
    {!Ufp_core.Reasonable.minimize} over fixed bundles: a bid's one
    candidate is its bundle, while it fits. *)

type state = {
  auction : Auction.t;
  loads : int array;  (** copies of each item allocated so far *)
}

type priority = state -> Auction.bid -> float

val h_muca : eps:float -> priority
(** The function minimised by Algorithm 2:
    [(1/v_s) sum_{u in s} (1/c_u) exp(eps B f_u / c_u)] (§4.2). *)

val bundle_size : priority
(** [|U_r| / v_r] — the plain size-greedy member of the family. *)

val max_load : priority
(** [(max_{u in s} f_u + 1) * |s| / v_s] — prefers bundles over lightly
    loaded items; also reasonable under Definition 4.3. *)

type tie_break = state -> int list -> int
(** Chooses a bid index among the tied minimum-priority candidates
    (non-empty, increasing). *)

val first_bid : tie_break
(** Lowest bid index — on {!Lower_bound.make} instances this is
    already the adversarial order, because type 1 bids come first. *)

val random_bid : seed:int -> tie_break

type result = {
  allocation : Auction.Allocation.t;
  iterations : int;
}

val run : priority:priority -> tie_break:tie_break -> Auction.t -> result
(** Run to saturation. Identical bids (same bundle and value) are
    grouped, so per-iteration cost scales with distinct bid types. *)
