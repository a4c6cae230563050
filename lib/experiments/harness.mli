(** Shared builders and formatting for the experiment suite.

    Every experiment module in this library regenerates one table or
    figure of the paper (see DESIGN.md section 4) and returns plain
    {!Ufp_prelude.Table.t} values, so the benchmark executable and the
    CLI render identical output. *)

val e_ratio : float
(** [e / (e - 1)], the paper's headline constant (~1.582). *)

val grid_instance :
  seed:int -> rows:int -> cols:int -> capacity:float -> count:int ->
  Ufp_instance.Instance.t
(** Random-requests instance on an undirected grid. Deterministic. *)

val layered_instance :
  seed:int -> layers:int -> width:int -> capacity:float -> count:int ->
  Ufp_instance.Instance.t
(** Random-requests instance on a random layered DAG. Deterministic. *)

val capacity_for : m:int -> eps:float -> float
(** The smallest capacity satisfying the Theorem 3.1 premise
    [B >= ln m / eps^2], rounded up. *)

val random_auction :
  seed:int -> items:int -> multiplicity:int -> bids:int -> bundle:int ->
  Ufp_auction.Auction.t
(** Random single-minded auction with uniform multiplicities. *)

val pct : float -> string
(** Format a fraction as a percent cell, e.g. [0.625 -> "62.5%"]. *)

val ratio_cell : float -> float -> string
(** [ratio_cell num den] is [num /. den] as a 4-decimal cell, or "-"
    when the denominator is nonpositive. *)

val time_it : (unit -> 'a) -> 'a * float
(** Result and elapsed wall-clock seconds, read from the monotonic
    clock (immune to system clock steps). *)

val counters_during : (unit -> 'a) -> 'a * (string * int) list
(** Result plus the {!Ufp_obs.Metrics} counter deltas the call
    produced (nonzero deltas only, sorted by name) — the opt-in
    work-count column sink for experiment tables. *)

val counter_delta : (string * int) list -> string -> int
(** Look up one named counter in a {!counters_during} delta list
    (0 when absent). *)
