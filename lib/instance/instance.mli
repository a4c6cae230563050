(** A B-bounded unsplittable flow instance: a capacitated graph plus a
    set of connection requests.

    Following the paper's normalised formulation, instances are usually
    kept with demands in (0, 1], in which case the capacity bound [B]
    is simply [min_e c_e]. {!normalize} converts any instance to that
    form without changing the optimisation problem. *)

type t

val create : Ufp_graph.Graph.t -> Request.t array -> t
(** Validates every request: endpoints in range and connected by at
    least a potential path direction (no reachability check — an
    unroutable request is legal, it just can never be selected).
    Raises [Invalid_argument] on out-of-range endpoints. The request
    array is copied. *)

val graph : t -> Ufp_graph.Graph.t

val n_requests : t -> int

val request : t -> int -> Request.t
(** Raises [Invalid_argument] when the index is out of range. *)

val requests : t -> Request.t array
(** A fresh copy of the request array. *)

val with_request : t -> int -> Request.t -> t
(** [with_request inst i r] is [inst] with request [i] replaced by [r]
    (same graph). The misreport operation for the mechanism harness;
    the replacement must keep the original endpoints, otherwise
    [Invalid_argument] is raised. *)

val max_demand : t -> float
(** [max_r d_r]; raises [Invalid_argument] when there are no requests. *)

val bound : t -> float
(** The paper's [B = min_e c_e / max_r d_r]. Raises [Invalid_argument]
    on an edgeless graph or an empty request set. *)

val normalize : t -> t
(** Rescale demands and capacities by [1 / max_r d_r] so demands lie in
    (0, 1] and [bound] becomes [min_e c_e]. Values are untouched; the
    feasible sets coincide. The rescaled graph
    ({!Ufp_graph.Graph.rescale}) shares the source's CSR adjacency, so
    normalising a loaded instance builds no CSR. Returns [t] itself
    when [max_r d_r = 1]. Raises [Invalid_argument] when a rescaled
    capacity overflows. *)

val is_normalized : t -> bool
(** Whether every demand is at most 1 (and the set is non-empty). *)

val meets_bound : t -> eps:float -> bool
(** Whether [bound t >= ln m / eps^2], the premise of Theorem 3.1. *)

val total_value : t -> float
(** Sum of all request values — a trivial upper bound on OPT. *)

val pp : Format.formatter -> t -> unit
